package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"vgiw/internal/trace"
)

// span is one timed call into a layer. Spans of one op share its id; a
// span's parent is the span whose call caused it (-1 for an op's root).
type span struct {
	name       string
	op, parent int
	start, end time.Duration // offsets from the recorder's epoch
}

// recorder keeps the traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a span with known bounds and returns its index.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name, op, parent, start.Sub(r.epoch), end.Sub(r.epoch)})
	return len(r.spans) - 1
}

// open starts a span that close ends.
func (r *recorder) open(name string, op, parent int) int {
	now := time.Now()
	return r.add(name, op, parent, now, now)
}

// close ends a span and returns its duration.
func (r *recorder) close(i int) time.Duration {
	end := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].end = end
	return end - r.spans[i].start
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]span, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		self[s.name] += s.end - s.start - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	at := parent.start
	for _, k := range kids {
		lo, hi := max(k.start, at), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// chromeSpan is one complete ("X") event of the Chrome trace-event format,
// in microseconds of host time.
type chromeSpan struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Ts   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	Args map[string]int64 `json:"args"`
}

// write saves the spans as Chrome trace-event JSON (one track per op) and
// validates the file with the repository's own trace-event checker.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	events := make([]chromeSpan, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeSpan{Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts: s.start.Microseconds(), Dur: (s.end - s.start).Microseconds(),
			Args: map[string]int64{"op": int64(s.op), "parent": int64(s.parent)}}
	}
	r.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if _, err := trace.ValidateChromeTrace(data); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// tracer records the layer calls of one op as children of its root span. A
// nil tracer only makes the calls.
type tracer struct {
	rec        *recorder
	op, parent int
}

// do runs fn inside a span named for the layer it calls.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	i := t.rec.open(name, t.op, t.parent)
	err := fn()
	t.rec.close(i)
	return err
}

// layerSpans maps each layer span to the per-layer metric that reports its
// self time per op. Their sum is what the trace attributes to layers.
var layerSpans = []struct{ span, metric string }{
	{"kernels.build", "kernels.build_ms"},
	{"kernels.check", "kernels.check_ms"},
	{"compile.vgiw", "compile.vgiw_ms"},
	{"compile.simt", "compile.simt_ms"},
	{"compile.sgmf", "compile.sgmf_ms"},
	{"fabric.place", "fabric.place_ms"},
	{"fabric.sgmf_place", "fabric.sgmf_place_ms"},
	{"core.sim", "core.sim_ms"},
	{"simt.sim", "simt.sim_ms"},
	{"sgmf.sim", "sgmf.sim_ms"},
	{"power", "power.ms"},
	{"bench.collect", "bench.collect_ms"},
}

// pairs runs n pairs of an untraced op and the same op traced under a root
// span named rootSpan. It returns each op's time scaled by the calibrations
// around it, and the median calibration factor of the traced ops.
func pairs(rec *recorder, rootSpan string, n int, untraced func() error, traced func(*tracer) error) (untracedMS, tracedMS []float64, scale float64, err error) {
	cal := newCalibration()
	var factors []float64
	for p := 0; p < n; p++ {
		t0 := time.Now()
		if err := untraced(); err != nil {
			return nil, nil, 0, err
		}
		untracedMS = append(untracedMS, ms(time.Since(t0))*cal.factor())
		root := rec.open(rootSpan, p, -1)
		err := traced(&tracer{rec, p, root})
		d := rec.close(root)
		if err != nil {
			return nil, nil, 0, err
		}
		factors = append(factors, cal.factor())
		tracedMS = append(tracedMS, ms(d)*factors[p])
	}
	return untracedMS, tracedMS, median(factors), nil
}

// reconcile sets the layer self-time metrics per op of the traced run and
// the two checks on them. bench.unattributed_pct is the share of the traced
// ops (rootSpan) that no layer span accounts for: the root's self time, so
// the layer times and it add up to the traced op exactly.
// bench.trace_overhead_pct is how much longer the median traced op takes
// than the median untraced one, each op's time scaled by the calibrations
// around it. It warns when either is above 5%.
func reconcile(m map[string]float64, rec *recorder, rootSpan string, untracedMS, tracedMS []float64) {
	self := rec.selfTimes()
	roots := rec.durations(rootSpan)
	total := 0.0
	for _, d := range roots {
		total += d
	}
	for _, l := range layerSpans {
		m[l.metric] = ms(self[l.span]) / float64(len(roots))
	}
	untraced := median(untracedMS)
	m["bench.unattributed_pct"] = 100 * ms(self[rootSpan]) / total
	m["bench.trace_overhead_pct"] = 100 * (median(tracedMS) - untraced) / untraced
	for _, name := range []string{"bench.unattributed_pct", "bench.trace_overhead_pct"} {
		if m[name] > 5 {
			fmt.Fprintf(os.Stderr, "warning: %s = %.2f%% (above 5%%)\n", name, m[name])
		}
	}
}
