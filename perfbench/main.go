// Command perfbench is the repository benchmark. One invocation runs one
// workload at one seed and prints, as the last line of standard output, a
// JSON object with the operations attempted and failed, whether every
// output check passed, and the metrics: the end-to-end metrics of
// BENCHMARK.json when untraced, the per-layer metrics when traced.
//
// The benchmark only calls the program's public package functions; it
// changes no program code. perfbench/run.sh builds and runs it; see
// perfbench/README.md for the workloads, metrics and span file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"epajsrm/internal/experiments"
	"epajsrm/internal/runner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outDir, relative to the repository root the benchmark runs from, holds
// everything the benchmark writes: span files and temporary journal
// directories, beside the build cache and binary run.sh puts there.
const outDir = ".bench_build"

// workloads maps each BENCHMARK.json workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"suite":         runSuite,
	"scale10k":      runScale,
	"history_query": runHistory,
}

// bench is one invocation: its arguments, its span log (nil when
// untraced), and what the workload measured and checked.
type bench struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spans   *spanLog
	log     io.Writer

	attempted, failed int64
	problems          []string
	values            map[string]float64
}

// problem records a failed output check.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(b.log, "check failed:", msg)
	}
	b.problems = append(b.problems, msg)
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite, scale10k or history_query")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "how long the workload measures")
	traceOn := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 the end-to-end metrics")
	probe := fs.Bool("setup-probe", false, "internal: start up as the suite would, print a line and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		// The suite's set-up ends where its first maker call would begin.
		runner.SetProcs(1)
		fmt.Fprintln(stdout, len(experiments.Makers()))
		return 0
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (suite|scale10k|history_query), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: read BENCHMARK.json (run from the repository root): %v\n", err)
		return 1
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceOn == 1,
		log:     stderr,
		values:  map[string]float64{},
	}
	if b.trace {
		b.spans = newSpanLog()
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := spec.EndToEnd
	if b.trace {
		want = spec.PerLayer
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := b.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %d written to %s\n", b.spans.len(), path)
	}
	res, err := b.result(want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printTable(stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed != 0 {
		return 1
	}
	return 0
}

// result assembles the output object over the listed metrics. An
// untraced run must have measured every end-to-end metric. A traced run
// reports 0 for the per-layer metrics of layers its workload does not
// exercise, so every traced run lists the same names.
func (b *bench) result(want []metricSpec) (result, error) {
	res := result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		v, ok := b.values[m.Name]
		if !ok && !b.trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range b.values {
		if !listed[name] {
			fmt.Fprintf(b.log, "note: %s is measured but not listed in BENCHMARK.json; dropped\n", name)
		}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operations attempted")
	}
	return res, nil
}

// printTable writes the metrics, one per line, for a reader of stderr.
func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}
