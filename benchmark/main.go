// Command vgiwbench is the repository benchmark. It drives the simulator
// only through its public entry points (the harness, the kernels, the three
// machines' compile/place/run calls, the vgiwd HTTP handler and the result
// store) and times each layer from outside by wrapping those calls.
//
// Build and run it from the repository root with run.sh, which keeps all
// build output in the checkout:
//
//	bash benchmark/run.sh --workload suite|compile|vgiwd|sweep --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// declares, measured with tracing off; with -trace 1 a short traced run
// reports the per-layer metrics and writes its spans as Chrome trace-event
// JSON to <work>/spans-<workload>.json. README.md describes the workloads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // smoke-test sizes: a few ops, one set-up, no warm-up
	root     string // repository root: BENCHMARK.json and BENCH_trace.json
	work     string // scratch directory: daemon stores and span files
}

// workloads maps each workload to its timed and its traced run.
var workloads = map[string]struct {
	timed, traced func(config) (*outcome, error)
}{
	"suite":   {timeSuite, traceSuite},
	"compile": {timeCompile, traceCompile},
	"vgiwd":   {timeVgiwd, traceVgiwd},
	"sweep":   {timeSweep, traceSweep},
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// bypassed names the layers the workload never calls; their per-layer
	// metrics read 0.
	bypassed []string
	// timeScale is the calibration factor a traced run's per-layer times
	// (ms, us, ns) are multiplied by.
	timeScale float64
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "suite, compile, vgiwd or sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measured run length (0 = run_seconds from BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = run the traced variant and report per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "vgiwbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	line, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgiwbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// run performs one run and renders its result line.
func run(cfg config) (string, error) {
	decl, err := loadDeclaration(cfg.root)
	if err != nil {
		return "", err
	}
	w, ok := workloads[cfg.workload]
	if !ok || !slices.ContainsFunc(decl.Workloads, func(d workloadDecl) bool { return d.Name == cfg.workload }) {
		return "", fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(decl.RunSeconds)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return "", err
	}
	f := w.timed
	if cfg.trace {
		f = w.traced
	}
	o, err := f(cfg)
	if err != nil {
		return "", fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return resultLine(decl, cfg.trace, o)
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// declaration is BENCHMARK.json: the single list of workloads and metrics,
// with each metric's unit, direction and regression bound.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func loadDeclaration(root string) (*declaration, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders exactly the declared metrics of the run's kind (end to
// end, or per layer when traced). A declared metric the run did not measure,
// or a measured one that is not declared, is an error.
func resultLine(decl *declaration, traced bool, o *outcome) (string, error) {
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	out := make(map[string]metricValue, len(list))
	for _, d := range list {
		v, ok := o.metrics[d.Name]
		if !ok && slices.Contains(o.bypassed, strings.SplitN(d.Name, ".", 2)[0]) {
			v, ok = 0, true
		}
		if !ok {
			return "", fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		if traced && (d.Unit == "ms" || d.Unit == "us" || d.Unit == "ns") {
			v *= o.timeScale
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	var extra []string
	for name := range o.metrics {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("metrics not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, out})
	return string(b), err
}

// setup repeats a workload's one-time set-up, throwing its product away. It
// returns how long the set-up took, leaving out any scaffolding of the
// benchmark's own, and what tears it down, or nil.
type setup func() (took time.Duration, teardown func(), err error)

// At the start of every slice of a timed run, the workload's set-up is
// repeated for setupPerSlice, at least once and at most maxSetupPerSlice
// times; setup_s is the median of all repetitions. Spread over the run, they
// sample the host's slow and fast phases as the ops do, so the median holds
// steady between runs: a set-up of a millisecond repeats about 200 times in
// a run, one of 25 ms about 30 times. The cap also bounds the sockets the
// daemon set-ups leave in TIME_WAIT.
const (
	setupPerSlice    = 20 * time.Millisecond
	maxSetupPerSlice = 8
)

// sample times one slice's set-up repetitions and returns them in seconds,
// scaled by the calibrations around them.
func (s setup) sample(cal *calibration) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for len(secs) < maxSetupPerSlice && (len(secs) == 0 || time.Since(start) < setupPerSlice) {
		took, teardown, err := s()
		secs = append(secs, took.Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if teardown != nil {
			teardown()
		}
	}
	f := cal.factor()
	for i := range secs {
		secs[i] *= f
	}
	return secs, nil
}

// budget bounds a closed loop: no op starts at or after until (when set) or
// at index ops or beyond (when set).
type budget struct {
	until time.Time
	ops   int
}

func (b budget) allows(i int) bool {
	return (b.ops == 0 || i < b.ops) && (b.until.IsZero() || time.Now().Before(b.until))
}

type loopStats struct {
	latMS   []float64 // per-op latency, ms
	failed  int
	elapsed time.Duration
}

// closedLoop runs op from `clients` callers, each sending its next op only
// once the previous one returned, until the budget is spent. Ops are
// numbered in the order they start, from first; op first always starts.
func closedLoop(clients, first int, b budget, op func(i int) error) loopStats {
	var (
		mu   sync.Mutex
		next = first
		ls   loopStats
		wg   sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next > first && !b.allows(next) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	done := func(d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		ls.latMS = append(ls.latMS, ms(d))
		if err != nil {
			ls.failed++
		}
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				t0 := time.Now()
				err := op(i)
				done(time.Since(t0), err)
				if err != nil {
					fmt.Fprintf(os.Stderr, "op %d FAILED: %v\n", i, err)
				}
			}
		}()
	}
	wg.Wait()
	ls.elapsed = time.Since(start)
	return ls
}

// heapAllocBytes is the cumulative number of bytes the process has
// allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// slice is how long a run loads the host between two calibrations.
const slice = time.Second

// sliced is a closed loop run in slices with a calibration after each.
type sliced struct {
	raw, scaled []float64 // op latencies (ms), unscaled and scaled by the calibrations around their slice
	seconds     float64   // the scaled length of the run
	failed      int
	alloc       uint64 // heap bytes allocated while ops ran
	factors     []float64
}

// runSliced runs op from `clients` closed-loop callers until b is spent, in
// slices of `slice` with a calibration after each. It calls between, when
// set, before each slice's ops.
func runSliced(cal *calibration, clients int, b budget, op func(i int) error, between func()) sliced {
	var s sliced
	for n := 0; n == 0 || b.allows(n); {
		if between != nil {
			between()
		}
		sb := budget{until: time.Now().Add(slice), ops: b.ops}
		if !b.until.IsZero() && sb.until.After(b.until) {
			sb.until = b.until
		}
		a0 := heapAllocBytes()
		ls := closedLoop(clients, n, sb, op)
		s.alloc += heapAllocBytes() - a0
		f := cal.factor()
		for _, l := range ls.latMS {
			s.raw = append(s.raw, l)
			s.scaled = append(s.scaled, l*f)
		}
		s.seconds += ls.elapsed.Seconds() * f
		s.failed += ls.failed
		s.factors = append(s.factors, f)
		n += len(ls.latMS)
	}
	return s
}

// timedRun measures op for cfg.seconds from `clients` closed-loop callers,
// after one untimed warm-up op when warmUp is set, repeating the set-up at
// the start of each slice, and reports the end-to-end metrics. Under -quick
// it runs one op per client.
func timedRun(cfg config, su setup, clients int, warmUp bool, op func(i int) error) *outcome {
	o := &outcome{}
	cal := newCalibration()
	if warmUp && !cfg.quick {
		o.attempted++
		if err := op(0); err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "warm-up FAILED: %v\n", err)
		}
	}
	b := budget{until: time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))}
	if cfg.quick {
		b = budget{ops: clients}
	}
	var setupS []float64
	s := runSliced(cal, clients, b, op, func() {
		secs, err := su.sample(cal)
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "FAILED: %v\n", err)
		}
		setupS = append(setupS, secs...)
	})
	n := float64(len(s.scaled))
	o.attempted += len(s.scaled)
	o.failed += s.failed
	o.metrics = map[string]float64{
		"setup_s":         median(setupS),
		"op_ms_p50":       median(s.scaled),
		"ops_per_s":       n / s.seconds,
		"alloc_mb_per_op": float64(s.alloc) / n / 1e6,
	}
	summarize(cfg.workload, "op_ms (unscaled)", s.raw)
	summarize(cfg.workload, "op_ms", s.scaled)
	summarize(cfg.workload, "setup_s", setupS)
	return o
}

// summarize prints a sample's count and quartiles.
func summarize(workload, name string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	fmt.Printf("%s %s: n=%d q1=%.6g median=%.6g q3=%.6g\n", workload, name, len(xs), q1, med, q3)
}
