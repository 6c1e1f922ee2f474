package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"epajsrm/internal/experiments"
	"epajsrm/internal/runner"
	"epajsrm/internal/scale"
)

// suitePass is one evaluation of every experiments.Makers() entry.
type suitePass struct {
	wall    time.Duration
	calls   []time.Duration
	allocMB []float64
	ids     []string
	digest  [sha256.Size]byte
}

// runSuite drives the reproduction suite: all 27 exhibit and experiment
// makers at the seed with the runner at one worker, as whole passes,
// repeated until the run time is spent.
func runSuite(b *bench) error {
	runner.SetProcs(1)
	mk := experiments.Makers()

	if b.trace {
		// Untraced, traced, untraced: the overhead compares the traced
		// pass with the mean of the two around it.
		plain := b.suitePass(mk, nil, 0)
		traced := b.suitePass(mk, b.spans, 1)
		plain2 := b.suitePass(mk, nil, 2)
		if plain.digest != traced.digest || plain2.digest != traced.digest {
			b.problem("suite digest differs between untraced and traced passes")
		}
		for i, id := range traced.ids {
			b.set("experiments."+id+"_s", traced.calls[i].Seconds())
			b.set("experiments."+id+"_alloc_mb", traced.allocMB[i])
		}
		b.set("trace.overhead_ratio", 2*traced.wall.Seconds()/(plain.wall+plain2.wall).Seconds())
		return nil
	}

	setups, err := b.probeSetups(9)
	if err != nil {
		return err
	}
	start := time.Now()
	var passes []suitePass
	for len(passes) == 0 || time.Since(start) < b.seconds {
		passes = append(passes, b.suitePass(mk, nil, len(passes)))
	}
	// A run of the suite is one pass; a query is one maker call, the
	// question one experiment answers.
	var walls, calls []float64
	var wallSum, callSum time.Duration
	for _, p := range passes {
		if p.digest != passes[0].digest {
			b.problem("suite digest differs between passes at the same seed")
		}
		walls = append(walls, p.wall.Seconds())
		wallSum += p.wall
		for _, d := range p.calls {
			calls = append(calls, ms(d))
			callSum += d
		}
	}
	b.set("setup_s", median(setups))
	b.set("wall_s", median(walls))
	b.set("peak_rss_mb", scale.PeakRSSMB())
	b.set("runs_per_s", float64(len(passes))/wallSum.Seconds())
	b.set("run_latency_p50_ms", 1000*quantile(walls, 0.50))
	b.set("run_latency_p95_ms", 1000*quantile(walls, 0.95))
	b.set("queries_per_s", float64(len(calls))/callSum.Seconds())
	b.set("query_latency_p50_ms", quantile(calls, 0.50))
	b.set("query_latency_p95_ms", quantile(calls, 0.95))
	fmt.Fprintf(b.log, "suite: %d passes, %d maker calls\n", len(passes), len(calls))
	return nil
}

// suitePass runs every maker once and renders the report. With a span
// log it also records each call's allocation, which costs a
// stop-the-world memory read per call, so untraced passes skip it.
func (b *bench) suitePass(mk []func(uint64) experiments.Result, log *spanLog, n int) suitePass {
	var p suitePass
	trace := fmt.Sprintf("pass-%d", n)
	root := log.begin(trace, 0, "suite.pass")
	defer root.end("")
	results := make([]experiments.Result, 0, len(mk))
	seen := map[string]bool{}
	t0 := time.Now()
	for i, f := range mk {
		var before, after runtime.MemStats
		if log != nil {
			runtime.ReadMemStats(&before)
		}
		sp := log.begin(trace, root.id, "experiments.call")
		c0 := time.Now()
		r, err := callMaker(f, b.seed)
		d := time.Since(c0)
		sp.end(r.ID)
		if log != nil {
			runtime.ReadMemStats(&after)
			p.allocMB = append(p.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		}
		b.attempted++
		switch {
		case err != nil:
			b.failed++
			b.problem("maker %d: %v", i, err)
		case r.ID == "" || seen[r.ID]:
			b.problem("maker %d returned empty or duplicate ID %q", i, r.ID)
		}
		seen[r.ID] = true
		p.calls = append(p.calls, d)
		p.ids = append(p.ids, r.ID)
		results = append(results, r)
	}
	p.wall = time.Since(t0)

	// The report as epabench prints it; its digest must repeat across
	// passes and between untraced and traced passes.
	sp := log.begin(trace, root.id, "suite.render")
	var sb strings.Builder
	for _, r := range results {
		sb.WriteString(r.Render())
	}
	report := sb.String()
	sp.end("")
	for _, r := range results {
		if !strings.Contains(report, "== "+r.ID+": ") {
			b.problem("suite report lacks %s", r.ID)
		}
	}
	p.digest = sha256.Sum256([]byte(report))
	return p
}

// callMaker runs one maker, turning a panic into an error.
func callMaker(f func(uint64) experiments.Result, seed uint64) (r experiments.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return f(seed), nil
}

// probeSetups measures the suite's set-up n times: each probe starts a
// fresh copy of this binary, which initializes every package the suite
// imports, sets the runner to one worker and lists the makers, then
// prints a line. Set-up is the time from process start to that line.
func (b *bench) probeSetups(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-probe")
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || werr != nil {
			return nil, fmt.Errorf("setup probe: read %v, exit %v", rerr, werr)
		}
		if line == "0\n" {
			return nil, fmt.Errorf("setup probe listed no makers")
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}
