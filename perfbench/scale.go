package main

import (
	"fmt"
	"runtime"
	"time"

	"epajsrm/internal/core"
	"epajsrm/internal/jobs"
	"epajsrm/internal/prof"
	"epajsrm/internal/scale"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
)

// scaleConfig is the 10k-node hollow site the workload runs: the default
// curve point's arrival rate, cut to 40k jobs over 2.8 simulated days and
// shaped to 110 % offered load. Overloaded, the queue stays long, so the
// reservation path dominates and the cost varies little with the seed: at
// the default 85 % load the queue comes and goes, and one 100k-job run
// took from 5.3 s to 11.4 s across twelve seeds. The 100k-node point
// takes about a minute and 800 MB, too long to repeat for every check, so
// it stays in BenchmarkScale.
func scaleConfig(seed uint64) scale.Config {
	cfg := scale.DefaultConfig(10000, seed)
	cfg.Horizon = cfg.Horizon * 4 / 10
	cfg.Jobs = cfg.Jobs * 4 / 10
	cfg.TargetUtil = 1.1
	return cfg
}

// pickTimer wraps a manager's scheduler and times every Pick call: each
// is one scheduling query ("which queued jobs start now?") over the view
// it records.
type pickTimer struct {
	inner  sched.Scheduler
	log    *spanLog
	trace  string
	parent int64

	durs    []float64 // ms per call
	total   time.Duration
	picked  int64
	running int64 // summed view sizes
	queue   int64
}

func (p *pickTimer) Name() string { return p.inner.Name() }

func (p *pickTimer) Pick(v sched.View) []*jobs.Job {
	sp := p.log.begin(p.trace, p.parent, "sched.pick")
	t0 := time.Now()
	out := p.inner.Pick(v)
	d := time.Since(t0)
	sp.end("")
	p.durs = append(p.durs, ms(d))
	p.total += d
	p.picked += int64(len(out))
	p.running += int64(len(v.Running))
	p.queue += int64(len(v.Queue))
	return out
}

// scaleCounts is what a hollow-site run simulated; it must not depend on
// whether the run was traced.
type scaleCounts struct {
	Jobs, Submitted, Completed, Killed, Requeues, Ckpts int
	Events                                              int64
	End                                                 simulator.Time
	Picks, Picked                                       int64
}

type scaleRep struct {
	setup  time.Duration
	wall   time.Duration
	counts scaleCounts
	pt     *pickTimer
	phases []prof.PhaseStat
}

// runScale drives the 10k-node hollow site: scale.Build and scale.Pump
// are the set-up, m.Run(-1) the timed run, repeated until the run time
// is spent.
func runScale(b *bench) error {
	cfg := scaleConfig(b.seed)
	if b.trace {
		// Untraced, traced, untraced: the overhead compares the traced
		// run with the mean of the two around it.
		var reps [3]scaleRep
		for i := range reps {
			log := b.spans
			if i != 1 {
				log = nil
			}
			r, err := b.scaleRep(cfg, log, i)
			if err != nil {
				return err
			}
			reps[i] = r
		}
		plain, traced, plain2 := reps[0], reps[1], reps[2]
		if plain.counts != traced.counts || plain2.counts != traced.counts {
			b.problem("scale10k counts differ: untraced %+v, traced %+v", plain.counts, traced.counts)
		}
		for _, ph := range traced.phases {
			b.set("prof."+ph.Name+"_s", ph.Seconds)
			b.set("prof."+ph.Name+"_calls", float64(ph.Calls))
		}
		pt := traced.pt
		b.set("sched.pick_calls", float64(len(pt.durs)))
		b.set("sched.pick_s", pt.total.Seconds())
		b.set("sched.picked", float64(pt.picked))
		b.set("sched.view_running_mean", float64(pt.running)/float64(len(pt.durs)))
		b.set("sched.view_queue_mean", float64(pt.queue)/float64(len(pt.durs)))
		b.set("simulator.events", float64(traced.counts.Events))
		b.set("trace.overhead_ratio", 2*traced.wall.Seconds()/(plain.wall+plain2.wall).Seconds())
		return nil
	}

	// Seven set-ups before the timed repetitions, so the set-up median
	// has samples even when only one repetition fits.
	var setups []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		if _, _, err := scaleSetup(cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	start := time.Now()
	var reps []scaleRep
	for len(reps) == 0 || time.Since(start) < b.seconds {
		r, err := b.scaleRep(cfg, nil, len(reps))
		if err != nil {
			return err
		}
		if len(reps) > 0 && r.counts != reps[0].counts {
			b.problem("scale10k counts differ between repetitions at the same seed")
		}
		reps = append(reps, r)
	}
	var walls, picks []float64
	var wallSum time.Duration
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		wallSum += r.wall
		picks = append(picks, r.pt.durs...)
	}
	b.set("setup_s", median(setups))
	b.set("wall_s", median(walls))
	b.set("peak_rss_mb", scale.PeakRSSMB())
	b.set("runs_per_s", float64(len(reps))/wallSum.Seconds())
	b.set("run_latency_p50_ms", 1000*quantile(walls, 0.50))
	b.set("run_latency_p95_ms", 1000*quantile(walls, 0.95))
	b.set("queries_per_s", float64(len(picks))/wallSum.Seconds())
	b.set("query_latency_p50_ms", quantile(picks, 0.50))
	b.set("query_latency_p95_ms", quantile(picks, 0.95))
	c := reps[0].counts
	fmt.Fprintf(b.log, "scale10k: %d runs; jobs=%d completed=%d killed=%d events=%d picks=%d\n",
		len(reps), c.Jobs, c.Completed, c.Killed, c.Events, c.Picks)
	return nil
}

func scaleSetup(cfg scale.Config) (*core.Manager, *jobs.Arena, error) {
	m, err := scale.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, scale.Pump(m, cfg), nil
}

// scaleRep builds, pumps and runs one hollow site. With a span log the
// run also carries a phase profiler and records a span per Pick.
func (b *bench) scaleRep(cfg scale.Config, log *spanLog, n int) (scaleRep, error) {
	trace := fmt.Sprintf("run-%d", n)
	root := log.begin(trace, 0, "scale.rep")
	defer root.end("")
	var r scaleRep
	sp := log.begin(trace, root.id, "scale.build")
	t0 := time.Now()
	m, err := scale.Build(cfg)
	if err != nil {
		return r, err
	}
	sp.end("")
	if log != nil {
		m.AttachProfiler(prof.New())
	}
	sp = log.begin(trace, root.id, "scale.pump")
	arena := scale.Pump(m, cfg)
	sp.end("")
	r.setup = time.Since(t0)

	run := log.begin(trace, root.id, "scale.run")
	r.pt = &pickTimer{inner: m.Sched, log: log, trace: trace, parent: run.id}
	m.Sched = r.pt
	t0 = time.Now()
	end := m.Run(-1)
	r.wall = time.Since(t0)
	run.end("")
	r.phases = m.Prof.Snapshot()

	r.counts = scaleCounts{
		Jobs: arena.Len(), Submitted: m.Metrics.Submitted,
		Completed: m.Metrics.Completed, Killed: m.Metrics.Killed,
		Requeues: m.Metrics.Requeues, Ckpts: m.Metrics.CheckpointsWritten,
		Events: m.Eng.Fired(), End: end,
		Picks: int64(len(r.pt.durs)), Picked: r.pt.picked,
	}
	c := r.counts
	b.attempted += int64(cfg.Jobs)
	if unaccounted := c.Jobs - c.Completed - c.Killed; unaccounted != 0 || c.Jobs != cfg.Jobs || c.Submitted != cfg.Jobs {
		b.failed += int64(cfg.Jobs - c.Completed - c.Killed)
		b.problem("scale10k did not drain: jobs=%d submitted=%d completed=%d killed=%d (want %d)",
			c.Jobs, c.Submitted, c.Completed, c.Killed, cfg.Jobs)
	}
	runtime.GC()
	return r, nil
}
