// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload in-process through the repository's
// public functions, checks the workload's output against an
// independent computation, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run repeats the work with spans and per-layer counters around the
// public calls and reports the per-layer metrics instead. See README.md
// for the workloads, the metrics and how they relate.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload monitor-campus-text --seed 7 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
)

// runner is one benchmark workload. prepare makes its inputs, untimed;
// setup builds what one pass needs before its first operation and
// returns a function releasing it; pass runs the fixed work once;
// reference computes the expected output independently, untimed.
type runner interface {
	prepare(b *bench) error
	setup(b *bench) (release func(), err error)
	pass(b *bench, traced bool) (passResult, error)
	reference(b *bench) (string, error)
}

// passResult is what one pass of a workload produced.
type passResult struct {
	wall time.Duration
	// ops is the joined NFS operations the pass pushed through the
	// analyzers (see README.md for each workload's count).
	ops int64
	// output is the rendered result compared against the reference.
	output string
	// mismatch, when set, is an in-pass assertion that failed.
	mismatch string
	// latencies holds per-request samples, on workloads that have
	// requests (the monitor's reports).
	latencies []time.Duration
	// layers holds the per-layer metrics of a traced pass.
	layers map[string]float64
	rt     runtimeCounts
	// peakMB is the peak resident set during the pass.
	peakMB float64
}

var workloads = map[string]func() runner{
	"repro-week":          func() runner { return &reproWeek{} },
	"monitor-campus-text": func() runner { return &monitor{} },
	"mapmerge-eecs-bin":   func() runner { return &mapMerge{} },
}

// setupProbes is how many times a run builds a workload's set-up; the
// median is setup_s.
const setupProbes = 201

// runMargin is how far past --seconds a run may go before its deadline
// stops it. It covers input generation, the set-up probes, the pass
// that overruns the budget (on a traced repro-week run, one untraced
// and one traced pass of about 20 s each) and the output check.
const runMargin = 150 * time.Second

// bench carries one invocation's settings and bookkeeping.
type bench struct {
	ctx     context.Context
	name    string
	scale   repro.Scale
	seconds float64
	nproc   int
	work    string
	tr      *tracer
	out     io.Writer // progress lines, before the result

	// started counts passes begun and verified the passes whose output
	// check passed; a run stopped by its deadline reports from them.
	mu       sync.Mutex
	started  int
	verified int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: repro-week, monitor-campus-text, mapmerge-eecs-bin")
	seed := fs.Int64("seed", repro.DefaultScale().Seed, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long to repeat the workload's fixed work")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs and span files")
	gen := fs.String("gen", "", "internal: write the named input (campus-text, eecs-bin) to -out and exit")
	out := fs.String("out", "", "internal: output path for -gen")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	scale := repro.DefaultScale()
	scale.Seed = *seed

	if *gen != "" {
		if err := generate(*gen, scale, *out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	newWorkload, ok := workloads[*name]
	if !ok || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	deadline := time.Duration(*seconds*float64(time.Second)) + runMargin
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	runID := fmt.Sprintf("%s-%d-%d", *name, *seed, time.Now().UnixNano())
	b := &bench{
		ctx:     ctx,
		name:    *name,
		scale:   scale,
		seconds: *seconds,
		nproc:   nproc,
		work:    *work,
		tr:      newTracer(runID, *traceFlag == 1),
		out:     stdout,
	}
	m := describeMachine(nproc, *seed)
	fmt.Fprintf(stdout, "perfbench %s run=%s\n", *name, runID)
	fmt.Fprintf(stdout, "machine: %s\n", m)

	done := make(chan int, 1)
	go func() { done <- b.execute(newWorkload(), *traceFlag == 1, m, stdout, stderr) }()
	select {
	case code := <-done:
		return code
	case <-ctx.Done():
		return b.deadlineExceeded(done, deadline, stdout)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute prepares inputs, measures set-up and passes, checks every
// pass's output, and prints the result.
func (b *bench) execute(w runner, traced bool, m machine, stdout, stderr io.Writer) int {
	defer os.RemoveAll(b.inputDir())
	if err := w.prepare(b); err != nil {
		fmt.Fprintln(stderr, "perfbench: preparing inputs:", err)
		return 1
	}

	setups := make([]float64, 0, setupProbes)
	idle := runtime.NumGoroutine()
	for i := 0; i < setupProbes; i++ {
		start := time.Now()
		release, err := w.setup(b)
		d := time.Since(start)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		release()
		settle(idle)
		setups = append(setups, d.Seconds())
	}

	// A traced run measures the untraced work first, so the overhead of
	// tracing is measured against the same process and inputs.
	var plain, withSpans []passResult
	budget := b.seconds
	if traced {
		budget = b.seconds / 2
	}
	var err error
	if plain, err = b.passes(w, false, budget); err == nil && traced {
		withSpans, err = b.passes(w, true, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	// Output checks, outside every timed region.
	ref, err := w.reference(b)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: reference:", err)
		return 1
	}
	all := append(append([]passResult(nil), plain...), withSpans...)
	res := result{Attempted: len(all), Metrics: map[string]metric{}}
	for i, p := range all {
		bad := p.mismatch
		if bad == "" && p.output != ref {
			bad = "output differs from the reference: " + firstDiff(p.output, ref)
		}
		if bad != "" {
			res.Failed++
			fmt.Fprintf(stdout, "check failed (pass %d): %s\n", i+1, bad)
			continue
		}
		b.mu.Lock()
		b.verified++
		b.mu.Unlock()
	}
	res.Correct = res.Failed == 0

	e2e := endToEnd(plain, setups)
	printMetrics(stdout, "end-to-end", e2e)
	printRuntime(stdout, plain)
	if p := plain[0]; len(p.latencies) > 0 {
		printLatency(stdout, plain)
	}
	if !traced {
		res.Metrics = e2e
	} else {
		layers := perLayerMetrics(plain, withSpans)
		printMetrics(stdout, "per-layer", layers)
		res.Metrics = layers
		path, err := b.tr.dump(b.work, b.name, b.scale.Seed, m, layers)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// passes repeats the workload's fixed work until budget seconds have
// passed, at least once. Each pass starts from a collected heap, so
// one pass's garbage does not tax the next, and measures its own peak
// resident set.
func (b *bench) passes(w runner, traced bool, budget float64) ([]passResult, error) {
	var out []passResult
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds() < budget {
		if d, ok := w.(interface{ dropLast(traced bool) }); ok {
			d.dropLast(traced)
		}
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting the peak resident set: %w", err)
		}
		b.mu.Lock()
		b.started++
		b.mu.Unlock()
		before, cpu := readRuntime(), cpuSeconds()
		p, err := w.pass(b, traced)
		if err != nil {
			return nil, err
		}
		p.rt = readRuntime().sub(before)
		if p.peakMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		mode := "untraced"
		if traced {
			mode = "traced"
		}
		fmt.Fprintf(b.out, "pass %d (%s): wall %.3f s, cpu %.3f s, %d ops, peak RSS %.1f MB\n",
			len(out)+1, mode, p.wall.Seconds(), cpuSeconds()-cpu, p.ops, p.peakMB)
		out = append(out, p)
	}
	return out, nil
}

// deadlineExceeded reports a run stopped by its deadline: the spans
// still open name the layer that was running, and every pass not yet
// verified, the unfinished one included, counts as failed. It waits
// briefly for the run to wind down (a child generator is killed by the
// context) before exiting.
func (b *bench) deadlineExceeded(done <-chan int, deadline time.Duration, stdout io.Writer) int {
	open := b.tr.openSpans()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	os.RemoveAll(b.inputDir())
	fmt.Fprintf(stdout, "deadline of %v exceeded; open spans: %s\n", deadline, strings.Join(open, " > "))
	b.mu.Lock()
	attempted := b.started
	if attempted == 0 {
		attempted = 1 // stopped while preparing inputs
	}
	res := result{Attempted: attempted, Failed: attempted - b.verified, Metrics: map[string]metric{}}
	b.mu.Unlock()
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 3
}

// settle waits, untimed, until no more than idle goroutines run, so
// the decoders a released set-up started (Stop does not wait for them)
// do not run into the next probe. It gives up after a second.
func settle(idle int) {
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > idle && time.Now().Before(end); {
		time.Sleep(100 * time.Microsecond)
	}
}

func (b *bench) inputDir() string { return filepath.Join(b.work, "inputs-"+b.name) }

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics from the untraced passes:
// medians over the passes, and set-up as the median of the probes.
func endToEnd(ps []passResult, setups []float64) map[string]metric {
	walls := make([]float64, len(ps))
	rates := make([]float64, len(ps))
	peaks := make([]float64, len(ps))
	for i, p := range ps {
		walls[i] = p.wall.Seconds()
		rates[i] = float64(p.ops) / p.wall.Seconds()
		peaks[i] = p.peakMB
	}
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(walls), "s"},
		"ops_per_s":   {median(rates), "ops/s"},
		"peak_rss_mb": {median(peaks), "MB"},
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printRuntime prints the Go runtime counts over the timed passes.
func printRuntime(w io.Writer, ps []passResult) {
	for i, p := range ps {
		fmt.Fprintf(w, "runtime (pass %d): alloc %.1f MB, %d GC cycles, GC pauses %.3f ms\n",
			i+1, p.rt.allocMB(), p.rt.gcCycles, p.rt.gcPause*1e3)
	}
}

// printLatency prints per-request latency over every untraced pass:
// the median and the highest percentile with at least ten samples
// beyond it.
func printLatency(w io.Writer, ps []passResult) {
	var all []float64
	for _, p := range ps {
		for _, d := range p.latencies {
			all = append(all, float64(d.Nanoseconds())/1e3)
		}
	}
	sort.Float64s(all)
	fmt.Fprintf(w, "request latency over %d samples: p50_us %.1f us", len(all), quantile(all, 0.50))
	if len(all) >= 1000 {
		fmt.Fprintf(w, ", p99_us %.1f us", quantile(all, 0.99))
	}
	if len(all) >= 10000 {
		fmt.Fprintf(w, ", p999_us %.1f us", quantile(all, 0.999))
	}
	fmt.Fprintln(w)
}

// firstDiff names the first line where got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
