package main

import (
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.95, 4.8}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestBlockWalls(t *testing.T) {
	t0 := time.Unix(0, 0)
	var done []time.Time
	for i := 1; i <= 7; i++ {
		done = append(done, t0.Add(time.Duration(i)*time.Second))
	}
	got := blockWalls(t0, done, 3)
	if len(got) != 2 || got[0] != 3 || got[1] != 3 {
		t.Errorf("blockWalls = %v, want [3 3] (the partial last block dropped)", got)
	}
}
