package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"epajsrm/internal/metrics"
	"epajsrm/internal/prof"
	"epajsrm/internal/runreport"
	"epajsrm/internal/scale"
	"epajsrm/internal/service"
	"epajsrm/internal/simulator"
	"epajsrm/internal/site"
)

// history_query hosts a few week-long runs through the service's run
// lifecycle, then reads their metric histories back: range queries that
// cross the raw (2-day), 15-minute and 2-hour tier horizons, and every
// tenth request a Prometheus scrape.
const (
	historyRuns   = 3
	historyJobs   = 500
	historyDays   = 7
	historySetups = 7
	historyPoll   = 5 * time.Millisecond
	historyScrape = 10   // every 10th request scrapes /runs/{id}/metrics
	historyBlock  = 1000 // wall_s is the median time to complete this many requests
)

// historyRun is one hosted run: its spec, the server's record of it, its
// report and the series the readers query.
type historyRun struct {
	spec   service.Spec
	info   service.RunInfo
	report []byte
	series []string
}

// hostedStats is what the set-ups' hosted runs observed: the client's
// latency per request kind, the server's slot wait and execution time per
// run, and, when traced, the runs' phase profiles and the journal's
// fsyncs.
type hostedStats struct {
	mu       sync.Mutex
	lat      map[string][]float64 // ms per request kind
	wait     []float64            // ms, RunInfo started − created
	exec     []float64            // ms, RunInfo ended − started
	requests int64
	shed     int64
	prof     map[string]float64 // hosted prof.<phase>_s / _calls sums
	fsyncs   float64
	fsync    metrics.Point // journal.fsync_ms bucket counts summed over set-ups
}

func (hs *hostedStats) observe(kind string, r reply) {
	hs.mu.Lock()
	hs.requests++
	hs.lat[kind] = append(hs.lat[kind], ms(r.dur))
	hs.mu.Unlock()
}

// readStats is what one read window observed.
type readStats struct {
	mu       sync.Mutex
	start    time.Time
	done     []time.Time
	lat      []float64
	byTier   map[int64][]float64 // /query latency by the tier step served
	scrape   []float64
	bytes    int64
	samples  int64
	queries  int64
	failed   int64
	requests int64
}

func runHistory(b *bench) error {
	hs := &hostedStats{
		lat:   map[string][]float64{},
		prof:  map[string]float64{},
		fsync: metrics.Point{Kind: metrics.KindHistogram},
	}
	// Per set-up: its time, its hosting rate, and the p50 and p95 of its
	// runs' latencies. Each run figure is the median over set-ups, so one
	// slow set-up does not set it.
	var setups, rates, latP50, latP95 []float64
	nruns := 0
	var h *hosting
	var runs, hosted []historyRun
	for i := 0; i < historySetups; i++ {
		trace := fmt.Sprintf("setup-%d", i)
		root := b.spans.begin(trace, 0, "history.setup")
		t0 := time.Now()
		sp := b.spans.begin(trace, root.id, "service.new")
		hh, err := startHosting(historyRuns)
		if err != nil {
			return err
		}
		sp.end("")
		var before map[string]registryPoint
		if b.trace {
			before, err = hh.registry("/metrics.json")
		}
		h0 := time.Now()
		var rs []historyRun
		var lat []float64
		if err == nil {
			rs, lat, err = b.hostRuns(hh, hs, trace, root.id)
		}
		hostWall := time.Since(h0)
		setups = append(setups, time.Since(t0).Seconds())
		rates = append(rates, historyRuns/hostWall.Seconds())
		root.end("")
		if err == nil && i < historySetups-1 {
			err = b.deleteRuns(hh, hs, rs, trace)
		}
		if err == nil && b.trace {
			err = hs.addJournal(hh, before)
		}
		if err != nil {
			hh.stop() //nolint:errcheck // the hosting error is the one to report
			return err
		}
		latP50 = append(latP50, quantile(lat, 0.50))
		latP95 = append(latP95, quantile(lat, 0.95))
		nruns += len(rs)
		for k := range rs {
			if len(hosted) >= historyRuns && !bytes.Equal(rs[k].report, hosted[k].report) {
				b.problem("history run %d: report differs between set-ups of the same spec", k)
			}
		}
		hosted = append(hosted, rs...)
		if i < historySetups-1 {
			if err := hh.stop(); err != nil {
				return err
			}
			// Collect the stopped service now, so the peak RSS does not
			// depend on when the collector would have run.
			runtime.GC()
			continue
		}
		h, runs = hh, rs
	}
	defer func() {
		if err := h.stop(); err != nil {
			b.problem("service shutdown: %v", err)
		}
	}()
	b.attempted += hs.requests

	if b.trace {
		// Untraced, traced, untraced: the overhead compares the traced
		// window with the mean of the two around it.
		win := b.seconds / 2
		plain := b.readWindow(h, runs, nil, 0, win)
		traced := b.readWindow(h, runs, b.spans, 1, win)
		plain2 := b.readWindow(h, runs, nil, 2, win)
		for _, s := range []*readStats{plain, traced, plain2} {
			if len(s.done) == 0 {
				return nil
			}
		}
		tier := func(step int64) float64 { return median(traced.byTier[step]) }
		b.set("ops.query_raw_p50_ms", tier(60))
		b.set("ops.query_mid_p50_ms", tier(900))
		b.set("ops.query_long_p50_ms", tier(7200))
		b.set("ops.metrics_p50_ms", median(traced.scrape))
		b.set("ops.bytes_per_query", float64(traced.bytes)/float64(traced.queries))
		b.set("tsdb.samples_per_query", float64(traced.samples)/float64(traced.queries))
		var series []float64
		for _, r := range runs {
			series = append(series, float64(len(r.series)))
		}
		b.set("tsdb.series", mean(series))
		perReq := func(s *readStats) float64 {
			return s.done[len(s.done)-1].Sub(s.start).Seconds() / float64(len(s.done))
		}
		b.set("trace.overhead_ratio", 2*perReq(traced)/(perReq(plain)+perReq(plain2)))
		b.hostedLayers(hs)
		b.standalone(hosted, b.spans)
		return nil
	}

	s := b.readWindow(h, runs, nil, 0, b.seconds)
	if len(s.done) == 0 {
		return nil
	}
	elapsed := s.done[len(s.done)-1].Sub(s.start).Seconds()
	b.set("setup_s", median(setups))
	b.set("wall_s", median(blockWalls(s.start, s.done, historyBlock)))
	b.set("peak_rss_mb", scale.PeakRSSMB())
	b.set("runs_per_s", median(rates))
	b.set("run_latency_p50_ms", median(latP50))
	b.set("run_latency_p95_ms", median(latP95))
	b.set("queries_per_s", float64(len(s.lat))/elapsed)
	b.set("query_latency_p50_ms", quantile(s.lat, 0.50))
	b.set("query_latency_p95_ms", quantile(s.lat, 0.95))
	fmt.Fprintf(b.log, "history_query: %d requests (%d range queries), %d hosted runs\n",
		len(s.lat), s.queries, nruns)
	// The peak RSS is read; now re-make the final set-up's runs outside
	// the service and compare the reports.
	b.standalone(runs, nil)
	return nil
}

// hostRuns hosts the history runs on a fresh service, all submitted
// together, and returns them with each run's latency from its POST to its
// report body.
func (b *bench) hostRuns(h *hosting, hs *hostedStats, trace string, parent int64) ([]historyRun, []float64, error) {
	rng := rand.New(rand.NewPCG(b.seed, 0x4157))
	runs := make([]historyRun, historyRuns)
	lat := make([]float64, historyRuns)
	errs := make([]error, historyRuns)
	var wg sync.WaitGroup
	for i := range runs {
		spec := service.Spec{
			Tenant: fmt.Sprintf("history-%d", i), Site: "cineca",
			Seed: rng.Uint64N(1 << 32), Jobs: historyJobs, Days: historyDays,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			runs[i], errs[i] = b.hostRun(h, hs, spec, trace, parent)
			lat[i] = ms(time.Since(t0))
		}(i)
	}
	wg.Wait()
	b.attempted += historyRuns
	if err := errors.Join(errs...); err != nil {
		b.failed++
		return nil, nil, err
	}
	return runs, lat, nil
}

// deleteRuns deletes a set-up's runs once their service is no longer
// read; each delete must answer with the run's complete record.
func (b *bench) deleteRuns(h *hosting, hs *hostedStats, runs []historyRun, trace string) error {
	root := b.spans.begin(trace, 0, "history.teardown")
	defer root.end("")
	for _, r := range runs {
		d, err := b.hostedStep(h, hs, trace, root.id, "delete", http.MethodDelete, "/runs/"+r.info.ID, http.StatusOK)
		if err != nil {
			return err
		}
		if !bytes.Contains(d.body, []byte(`"complete"`)) {
			return fmt.Errorf("run %s: delete answered %s", r.info.ID, bytes.TrimSpace(d.body))
		}
	}
	return nil
}

// hostRun follows one run through the service: submit, read /state once,
// poll to a terminal state, read the report, list the run's series and
// query its energy history. Traced, it also reads the run's registry for
// its phase profile.
func (b *bench) hostRun(h *hosting, hs *hostedStats, spec service.Spec, trace string, parent int64) (historyRun, error) {
	root := b.spans.begin(trace, parent, "service.host_run")
	defer root.end(spec.Tenant)
	run := historyRun{spec: spec}

	sp := b.spans.begin(trace, root.id, "service.submit")
	id, r, err := h.submit(spec)
	sp.end("")
	if r.code != 0 {
		hs.observe("submit", r)
	}
	if err != nil {
		if r.code == http.StatusTooManyRequests || r.code == http.StatusServiceUnavailable {
			hs.mu.Lock()
			hs.shed++
			hs.mu.Unlock()
		}
		return run, err
	}
	path := "/runs/" + id
	// /state answers 409 while the run still waits for a slot.
	if _, err := b.hostedStep(h, hs, trace, root.id, "scrape", http.MethodGet, path+"/state", http.StatusOK, http.StatusConflict); err != nil {
		return run, err
	}
	info, err := h.pollTerminal(id, historyPoll, func(r reply) {
		hs.observe("poll", r)
		b.spans.add(trace, root.id, "service.poll", time.Now().Add(-r.dur), time.Now(), "")
	})
	if err != nil {
		return run, err
	}
	if info.State != string(service.StateComplete) {
		return run, fmt.Errorf("history run %s ended %s: %s", id, info.State, info.Reason)
	}
	run.info = info
	created, started, ended := time.UnixMilli(info.Created), time.UnixMilli(info.Started), time.UnixMilli(info.Ended)
	b.spans.add(trace, root.id, "service.slot_wait", created, started, id)
	b.spans.add(trace, root.id, "service.exec", started, ended, id)
	hs.mu.Lock()
	hs.wait = append(hs.wait, float64(info.Started-info.Created))
	hs.exec = append(hs.exec, float64(info.Ended-info.Started))
	hs.mu.Unlock()

	rep, err := b.hostedStep(h, hs, trace, root.id, "report", http.MethodGet, path+"/report", http.StatusOK)
	if err != nil {
		return run, err
	}
	if len(rep.body) == 0 {
		return run, fmt.Errorf("history run %s: empty report", id)
	}
	run.report = rep.body

	list, err := b.hostedStep(h, hs, trace, root.id, "series", http.MethodGet, path+"/query", http.StatusOK)
	if err != nil {
		return run, err
	}
	var names struct {
		Metrics []string `json:"metrics"`
	}
	if err := json.Unmarshal(list.body, &names); err != nil || len(names.Metrics) == 0 {
		return run, fmt.Errorf("history run %s: series list %q: %v", id, list.body, err)
	}
	run.series = names.Metrics

	q, err := b.hostedStep(h, hs, trace, root.id, "query", http.MethodGet, path+"/query?metric=power.total_energy_j", http.StatusOK)
	if err != nil {
		return run, err
	}
	var energy struct {
		Samples []struct{ V float64 } `json:"samples"`
	}
	if err := json.Unmarshal(q.body, &energy); err != nil || len(energy.Samples) == 0 || energy.Samples[len(energy.Samples)-1].V <= 0 {
		return run, fmt.Errorf("history run %s: energy query has no positive sample: %v", id, err)
	}

	if b.trace {
		sp := b.spans.begin(trace, root.id, "service.metrics_json")
		pts, err := h.registry(path + "/metrics.json")
		sp.end("")
		if err != nil {
			return run, err
		}
		hs.mu.Lock()
		hs.requests++
		for name, p := range pts {
			if ph, ok := strings.CutPrefix(name, "prof."); ok {
				phase, unit, _ := strings.Cut(ph, ".")
				if unit == "seconds" {
					hs.prof["prof."+phase+"_s"] += p.Value
				} else {
					hs.prof["prof."+phase+"_calls"] += p.Value
				}
			}
		}
		hs.mu.Unlock()
	}
	return run, nil
}

// hostedStep issues one request of a hosted run's lifecycle and books its
// latency; any status outside want is an error.
func (b *bench) hostedStep(h *hosting, hs *hostedStats, trace string, parent int64, kind, method, path string, want ...int) (reply, error) {
	sp := b.spans.begin(trace, parent, "service."+kind)
	r, err := h.do(method, path, nil)
	sp.end(path)
	if err != nil {
		return r, fmt.Errorf("%s %s: %v", method, path, err)
	}
	hs.observe(kind, r)
	if !slices.Contains(want, r.code) {
		return r, fmt.Errorf("%s %s: status %d: %s", method, path, r.code, bytes.TrimSpace(r.body))
	}
	return r, nil
}

// addJournal adds the journal's fsyncs since the service registry
// snapshot before.
func (hs *hostedStats) addJournal(h *hosting, before map[string]registryPoint) error {
	after, err := h.registry("/metrics.json")
	if err != nil {
		return err
	}
	hs.fsyncs += after["journal.fsyncs"].Value - before["journal.fsyncs"].Value
	hb, ha := before["journal.fsync_ms"], after["journal.fsync_ms"]
	if len(ha.Counts) == 0 || (len(hb.Counts) != 0 && len(hb.Counts) != len(ha.Counts)) {
		return errors.New("journal.fsync_ms histogram missing or reshaped")
	}
	if hs.fsync.Counts == nil {
		hs.fsync.Bounds = ha.Bounds
		hs.fsync.Counts = make([]int64, len(ha.Counts))
	}
	for i, c := range ha.Counts {
		if len(hb.Counts) != 0 {
			c -= hb.Counts[i]
		}
		hs.fsync.Counts[i] += c
		hs.fsync.Count += c
	}
	return nil
}

// hostedLayers sets the service, journal and hosted-profile metrics.
func (b *bench) hostedLayers(hs *hostedStats) {
	b.set("service.submit_p50_ms", median(hs.lat["submit"]))
	b.set("service.slot_wait_p50_ms", median(hs.wait))
	b.set("service.exec_p50_ms", quantile(hs.exec, 0.50))
	b.set("service.exec_p95_ms", quantile(hs.exec, 0.95))
	b.set("service.poll_p50_ms", median(hs.lat["poll"]))
	b.set("service.scrape_p50_ms", median(hs.lat["scrape"]))
	b.set("service.report_p50_ms", median(hs.lat["report"]))
	b.set("service.query_p50_ms", median(hs.lat["query"]))
	b.set("service.delete_p50_ms", median(hs.lat["delete"]))
	b.set("service.shed", float64(hs.shed))
	b.set("journal.fsyncs", hs.fsyncs)
	b.set("journal.fsync_p50_ms", hs.fsync.Quantile(0.50))
	b.set("journal.fsync_p99_ms", hs.fsync.Quantile(0.99))
	for ph := 0; ph < prof.NumPhases; ph++ {
		name := "prof." + prof.Phase(ph).Name()
		b.set(name+"_s", hs.prof[name+"_s"])
		b.set(name+"_calls", hs.prof[name+"_calls"])
	}
}

// standalone re-makes hosted runs outside the service — the site
// profile's Build, the engine run, and the report render that standalone
// epasim performs — and checks each hosted report is byte-identical.
// With a span log it also splits each run's execution into those three
// steps and what hosting added.
func (b *bench) standalone(runs []historyRun, log *spanLog) {
	var build, runT, render, overhead []float64
	for _, r := range runs {
		b.attempted++
		trace := "standalone-" + r.info.ID
		root := log.begin(trace, 0, "hosting.standalone")
		p, ok := site.ByName(r.spec.Site)
		if !ok {
			b.problem("unknown site %q", r.spec.Site)
			b.failed++
			continue
		}
		t0 := time.Now()
		m, js, err := p.Build(r.spec.Seed, r.spec.Jobs)
		t1 := time.Now()
		if err != nil {
			b.problem("standalone build %s: %v", r.info.ID, err)
			b.failed++
			continue
		}
		end := m.Run(simulator.Time(r.spec.Days) * simulator.Day)
		t2 := time.Now()
		var buf bytes.Buffer
		runreport.Write(&buf, p, m, js, end, runreport.Extras{})
		t3 := time.Now()
		log.add(trace, root.id, "site.build", t0, t1, "")
		log.add(trace, root.id, "simulator.run", t1, t2, "")
		log.add(trace, root.id, "runreport.render", t2, t3, "")
		root.end("")
		if !bytes.Equal(buf.Bytes(), r.report) {
			b.problem("run %s (seed %d): hosted report differs from standalone", r.info.ID, r.spec.Seed)
			b.failed++
		}
		build = append(build, ms(t1.Sub(t0)))
		runT = append(runT, ms(t2.Sub(t1)))
		render = append(render, ms(t3.Sub(t2)))
		overhead = append(overhead, float64(r.info.Ended-r.info.Started)-ms(t3.Sub(t0)))
	}
	if log != nil {
		b.set("site.build_p50_ms", median(build))
		b.set("simulator.run_p50_ms", median(runT))
		b.set("runreport.render_p50_ms", median(render))
		b.set("service.hosting_overhead_p50_ms", median(overhead))
	}
}

// readWindow runs one closed-loop reader per core for d.
func (b *bench) readWindow(h *hosting, runs []historyRun, log *spanLog, n int, d time.Duration) *readStats {
	s := &readStats{start: time.Now(), byTier: map[int64][]float64{}}
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(b.seed, uint64(1000+n*64+c)))
			trace := fmt.Sprintf("w%d-reader-%d", n, c)
			root := log.begin(trace, 0, "history.reader")
			defer root.end("")
			for k := 1; time.Since(s.start) < d; k++ {
				r := runs[rng.IntN(len(runs))]
				if k%historyScrape == 0 {
					b.scrape(h, s, log, trace, root.id, r)
				} else {
					b.rangeQuery(h, s, log, trace, root.id, r, rng)
				}
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(s.done, func(i, j int) bool { return s.done[i].Before(s.done[j]) })
	b.attempted += s.requests
	b.failed += s.failed
	if len(s.done) == 0 {
		b.problem("history_query completed no requests")
	}
	return s
}

// finish books one request's outcome.
func (b *bench) finish(s *readStats, r reply, ok bool, format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	if !ok {
		s.failed++
		b.problem(format, args...)
		return
	}
	s.done = append(s.done, time.Now())
	s.lat = append(s.lat, ms(r.dur))
}

func (b *bench) scrape(h *hosting, s *readStats, log *spanLog, trace string, parent int64, run historyRun) {
	id := run.info.ID
	sp := log.begin(trace, parent, "ops.metrics")
	r, err := h.do(http.MethodGet, "/runs/"+id+"/metrics", nil)
	sp.end(id)
	ok := err == nil && r.code == http.StatusOK
	if ok {
		pts, perr := metrics.ParsePrometheusText(bytes.NewReader(r.body))
		ok = perr == nil && len(pts) > 0
		err = perr
	}
	b.finish(s, r, ok, "scrape %s: status %d: %v", id, r.code, err)
	if ok {
		s.mu.Lock()
		s.scrape = append(s.scrape, ms(r.dur))
		s.mu.Unlock()
	}
}

// rangeQuery issues one seeded range read. The three shapes land on the
// three tiers: a recent window the raw tier still holds, a window that
// starts before the raw tier's 2-day horizon, and a long window with a
// 2-hour step hint.
func (b *bench) rangeQuery(h *hosting, s *readStats, log *spanLog, trace string, parent int64, run historyRun, rng *rand.Rand) {
	name := run.series[rng.IntN(len(run.series))]
	end := run.info.SimEndS
	hour, day := int64(simulator.Hour), int64(simulator.Day)
	between := func(lo, hi int64) int64 {
		if hi <= lo {
			return lo
		}
		return lo + rng.Int64N(hi-lo)
	}
	var from, to, step int64
	switch rng.IntN(3) {
	case 0:
		from = end - between(hour, 40*hour)
		to = from + between(hour/6, 4*hour)
	case 1:
		from = between(0, end-3*day)
		to = from + between(6*hour, 3*day)
	default:
		from = between(0, end-day)
		to = from + between(day, 7*day)
		step = 2 * hour
	}
	from, to = max(from, 0), min(to, end)
	q := url.Values{"metric": {name}, "from": {fmt.Sprint(from)}, "to": {fmt.Sprint(to)}}
	if step > 0 {
		q.Set("step", fmt.Sprint(step))
	}
	path := "/runs/" + run.info.ID + "/query?" + q.Encode()
	sp := log.begin(trace, parent, "ops.query")
	r, err := h.do(http.MethodGet, path, nil)
	var resp struct {
		Metric  string `json:"metric"`
		Step    int64  `json:"step"`
		From    int64  `json:"from"`
		To      int64  `json:"to"`
		Samples []struct {
			T int64   `json:"t"`
			V float64 `json:"v"`
		} `json:"samples"`
	}
	ok := err == nil && r.code == http.StatusOK
	if ok {
		err = json.Unmarshal(r.body, &resp)
		ok = err == nil && resp.Metric == name && resp.From == from && resp.To == to &&
			(resp.Step == 60 || resp.Step == 900 || resp.Step == 7200)
	}
	for i, smp := range resp.Samples {
		if smp.T < from || smp.T > to || (i > 0 && smp.T <= resp.Samples[i-1].T) {
			ok = false
			break
		}
	}
	sp.end(fmt.Sprintf("step=%d samples=%d", resp.Step, len(resp.Samples)))
	b.finish(s, r, ok, "query %s: status %d, step %d, %d samples: %v", path, r.code, resp.Step, len(resp.Samples), err)
	if ok {
		s.mu.Lock()
		s.queries++
		s.bytes += int64(len(r.body))
		s.samples += int64(len(resp.Samples))
		s.byTier[resp.Step] = append(s.byTier[resp.Step], ms(r.dur))
		s.mu.Unlock()
	}
}
