package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// blockWalls splits a sorted list of completion times into consecutive
// blocks of n completions and returns each block's wall time in seconds.
func blockWalls(start time.Time, done []time.Time, n int) []float64 {
	var out []float64
	prev := start
	for i := n - 1; i < len(done); i += n {
		out = append(out, done[i].Sub(prev).Seconds())
		prev = done[i]
	}
	return out
}
