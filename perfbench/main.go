// Command perfbench is the repository's end-to-end benchmark.  One run
// measures one named workload:
//
//	paper-p8  the paper's twelve experiments at paper scale, backends
//	          seq, tmk and pvm, base scenario at P=8, one job at a time
//	bigp-256  IS-Large and QSORT on the bigp scenario at P=256, backends
//	          seq, tmk and pvm — the tmk pending-diff merge path
//	serve-mix an in-process experiment service on a loopback listener:
//	          two closed-loop clients, warm repeats of a prefilled
//	          selection set interleaved with never-seen cold selections
//
// It checks every output (App.Check after each parallel leg, record
// digests stable across passes and runs, warm responses equal to their
// cold bytes, a sample of served responses equal to a direct run), and
// prints one line per metric followed by a JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run does one untraced and one traced pass and reports per-layer
// metrics, writing the spans and the CPU profile under .bench_build/out.
// The exit status is nonzero when any check fails.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64 // workload scale; 0 selects the workload's own (the self-test sets it)
	out      string  // directory for spans, profiles and digests (the self-test sets it)

	// Self-test knobs: a serve pass with fewer cold selections and
	// fewer warm requests per cold one (0 keeps the defaults).
	coldPerPass, warmPerCold int
}

// workload is one named traffic mix.
type workload interface {
	// setup builds the run's inputs from the seed.  It is timed and
	// repeated; each call replaces the previous state.
	setup() error
	// pass runs the workload's fixed operation list once on a fresh
	// set-up, checking every output into r.  tr is nil on untraced
	// passes.
	pass(tr *tracer, r *report) passResult
	// verify makes the checks that need the whole run (served bytes
	// against a direct run); tr is non-nil on traced runs.
	verify(tr *tracer, r *report)
	// layers adds the per-layer metrics of the traced pass.
	layers(tr *tracer, traced passResult, r *report)
	close()
}

// passResult is what one pass measured.
type passResult struct {
	wall   time.Duration
	ops    []time.Duration // every request's latency
	cold   []time.Duration // requests that computed a simulation
	digest string          // digest of the pass's deterministic outputs
	from   int32           // first span id of a traced pass
	to     int32           // span id after the pass
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: paper-p8, bigp-256 or serve-mix")
	flag.Uint64Var(&o.seed, "seed", 0, "input seed (0 reproduces the registry inputs)")
	flag.Float64Var(&o.seconds, "seconds", 36, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.out = filepath.Join(".bench_build", "out")
	o.trace = *trace == 1
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r.print(os.Stdout)
	if r.failed > 0 {
		os.Exit(1)
	}
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "paper-p8":
		return newPaperP8(o), nil
	case "bigp-256":
		return newBigP256(o), nil
	case "serve-mix":
		return newServeMix(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have paper-p8, bigp-256, serve-mix)", o.workload)
}

// Set-up is repeated and setup_s is the median: the grid workloads'
// set-up (registries and job lists) takes microseconds, serve-mix's
// (booting the server and prefilling the warm set) about 0.4 s.
const (
	gridSetupReps  = 101
	serveSetupReps = 7
)

// run measures one workload and returns its report.
func run(o options) (*report, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	r := newReport()
	polledBefore := sim.PolledWaits()

	reps := gridSetupReps
	if _, ok := w.(*serveMix); ok {
		reps = serveSetupReps
	}
	var setups []time.Duration
	for i := 0; i < reps; i++ {
		w.close()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}

	// Untraced passes until the next one would overrun the budget; a
	// traced run makes exactly one untraced and one traced pass.  Every
	// pass starts from a fresh set-up, outside its timing, so every pass
	// does the same work.
	var before, after runtime.MemStats
	var elapsed time.Duration
	var alloc uint64
	fresh := func(i int) error {
		if i > 0 {
			w.close()
			if err := w.setup(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		runtime.GC()
		return nil
	}
	ticks0, steal0 := cpuTicks()
	start := time.Now()
	var passes []passResult
	var longest time.Duration
	for {
		if err := fresh(len(passes)); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		p := w.pass(nil, r)
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		passes = append(passes, p)
		longest = max(longest, time.Since(t0))
		if o.trace || time.Since(start)+longest > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	if ticks1, steal1 := cpuTicks(); ticks1 > ticks0 {
		r.steal = (steal1 - steal0) / (ticks1 - ticks0)
	}
	untraced := len(passes)

	var tr *tracer
	var traced passResult
	var prof *cpuProfile
	var cpu map[string]float64
	var cpuSamples int64
	if o.trace {
		if err := fresh(len(passes)); err != nil {
			return nil, err
		}
		tr = newTracer()
		runtime.ReadMemStats(&before)
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
		traced = w.pass(tr, r)
		cpu, cpuSamples, err = prof.stop()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		passes = append(passes, traced)
	}
	polled := sim.PolledWaits() - polledBefore

	checkDigests(o, passes, r)
	w.verify(tr, r)

	if !o.trace {
		var walls, ops, cold []time.Duration
		for _, p := range passes {
			walls = append(walls, p.wall)
			ops = append(ops, p.ops...)
			cold = append(cold, p.cold...)
		}
		nops := len(ops)
		r.set("setup_s", "s", median(seconds(setups)), len(setups))
		r.set("wall_s", "s", median(seconds(walls)), len(walls))
		r.set("req_per_s", "1/s", float64(nops)/elapsed.Seconds(), nops)
		r.set("req_p50_ms", "ms", quantile(millis(ops), 0.50), len(ops))
		r.set("req_p99_ms", "ms", quantile(millis(ops), 0.99), len(ops))
		r.set("cold_p50_ms", "ms", quantile(millis(cold), 0.50), len(cold))
		r.set("cold_p90_ms", "ms", quantile(millis(cold), 0.90), len(cold))
		r.set("alloc_mb", "MB", float64(alloc)/(1<<20)/float64(untraced), untraced)
		r.set("peak_rss_mb", "MB", peakRSSMB(), 1)
		return r, nil
	}

	w.layers(tr, traced, r)
	probes(o, r)
	r.set("sim.polled_waits", "count", float64(polled), 1)
	r.set("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC), 1)
	r.set("runtime.mallocs", "count", float64(after.Mallocs-before.Mallocs), 1)
	for _, m := range moduleNames {
		r.set("cpu."+m, "share", cpu[m], int(cpuSamples))
	}
	r.set("trace.wall_s", "s", traced.wall.Seconds(), 1)
	r.set("trace.overhead_ratio", "ratio", traced.wall.Seconds()/passes[0].wall.Seconds()-1, 2)
	r.set("trace.spans", "count", float64(len(tr.spans)), 1)

	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := tr.write(base + "-spans.jsonl"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+"-cpu.pprof", prof.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return r, nil
}

// checkDigests requires every pass of the run to produce the same
// outputs, and the run to match any earlier run of the same workload
// and seed (traced or not) recorded under o.out.  The engine version is
// part of the file name, so a deliberate engine change, which bumps it,
// starts a fresh digest.
func checkDigests(o options, passes []passResult, r *report) {
	want := passes[0].digest
	for i, p := range passes[1:] {
		r.check(p.digest == want, "pass %d output digest %s differs from pass 0 (%s)", i+1, p.digest, want)
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s.digest", o.workload, o.seed, harness.EngineVersion))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		r.check(strings.TrimSpace(string(prev)) == want, "output digest %s differs from an earlier run's %s", want, strings.TrimSpace(string(prev)))
	case os.IsNotExist(err):
		if err := os.WriteFile(path, []byte(want+"\n"), 0o644); err != nil {
			r.check(false, "write digest: %v", err)
		}
	default:
		r.check(false, "read digest: %v", err)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics and its operation and check
// counts.  Operations are counted once each (a grid job with its
// checks, an HTTP request, a verification); a failed check or a failed
// operation counts one failure.
type report struct {
	mu                sync.Mutex // guards the counts; clients run concurrently
	attempted, failed int64
	failures          []string
	steal             float64 // host CPU share stolen during the timed passes
	metrics           map[string]metric
	samples           map[string]int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// op counts one attempted operation, failed unless err is nil.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err.Error())
	}
}

// check records a failed check (not a separate operation) unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.failed++
		r.note(fmt.Sprintf(format, args...))
	}
}

func (r *report) note(msg string) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// print writes one line per metric with its unit and sample count, the
// failures, and the JSON result as the last line.
func (r *report) print(f io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "%-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "%-32s %14.6g %-6s n=%d\n", "fail_ratio", ratio, "ratio", r.attempted)
	fmt.Fprintf(f, "%-32s %14.6g %-6s (not a metric: host CPU stolen during the untraced passes)\n", "host_steal", r.steal, "share")
	for _, msg := range r.failures {
		fmt.Fprintln(f, "FAIL:", msg)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(f, string(out))
}
