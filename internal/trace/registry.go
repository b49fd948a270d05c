package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
)

// MetricsSchema versions the flat metrics namespace. Bump it whenever a
// metric is renamed or its meaning changes; adding metrics is
// backward-compatible and needs no bump.
const MetricsSchema = "vgiw-metrics/v1"

// Hist is a power-of-two-bucketed histogram of non-negative int64 samples.
// Bucket i counts samples v with bits.Len64(v) == i (bucket 0 holds v == 0),
// so the buckets are [0], [1], [2,3], [4,7], ... — cheap, allocation-free,
// and wide enough for cycle counts.
type Hist struct {
	Count    uint64
	Sum      int64
	Min, Max int64
	Buckets  [65]uint64
}

// Observe adds one sample. Negative samples are clamped to 0 (cycle deltas
// are never negative; clamping keeps a bug from corrupting the buckets).
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(uint64(v))]++
}

// Mean is the average sample.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Registry is a flat, named metrics store: counters and histograms keyed by
// slash/dot-separated names ("bfs.kernel1/vgiw.cycles"). It is the stable
// schema behind the BENCH_*.json exports: names are pinned by a golden test,
// and Snapshot/WriteJSON render deterministically (sorted by name).
//
// A nil *Registry is valid and discards everything, mirroring the Sink
// contract.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	hists    map[string]*Hist
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		hists:    make(map[string]*Hist),
	}
}

// Add increments the named counter.
func (r *Registry) Add(name string, v uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// Set overwrites the named counter (for gauges like tile size).
func (r *Registry) Set(name string, v uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = v
	r.mu.Unlock()
}

// Observe adds a sample to the named histogram.
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &Hist{}
		r.hists[name] = h
	}
	h.Observe(v)
	r.mu.Unlock()
}

// Merge folds other's counters and histograms into r.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, v := range other.counters {
		r.counters[n] += v
	}
	for n, oh := range other.hists {
		h, ok := r.hists[n]
		if !ok {
			h = &Hist{}
			r.hists[n] = h
		}
		if oh.Count == 0 {
			continue
		}
		if h.Count == 0 || oh.Min < h.Min {
			h.Min = oh.Min
		}
		if oh.Max > h.Max {
			h.Max = oh.Max
		}
		h.Count += oh.Count
		h.Sum += oh.Sum
		for i := range h.Buckets {
			h.Buckets[i] += oh.Buckets[i]
		}
	}
}

// Names returns every metric name, sorted. Histograms contribute their base
// name (the flat export derives .count/.sum/.min/.max from it).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Flat renders the registry as a flat map: counters verbatim, histograms as
// <name>.count/.sum/.min/.max/.mean_x1000 (fixed-point mean keeps the map
// integer-valued and byte-stable). encoding/json sorts map keys, so the
// serialized form is deterministic.
func (r *Registry) Flat() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counters)+4*len(r.hists))
	for n, v := range r.counters {
		out[n] = v
	}
	for n, h := range r.hists {
		out[n+".count"] = h.Count
		out[n+".sum"] = uint64(h.Sum)
		out[n+".min"] = uint64(h.Min)
		out[n+".max"] = uint64(h.Max)
		out[n+".mean_x1000"] = uint64(h.Mean() * 1000)
	}
	return out
}

// Snapshot is the one-line, schema-versioned export written next to
// BENCH_*.json files: a stable envelope around the flat metric map.
type Snapshot struct {
	Schema  string            `json:"schema"`
	Scale   int               `json:"scale,omitempty"`
	Metrics map[string]uint64 `json:"metrics"`
}

// WriteSnapshot emits the registry as a single line of JSON under the
// current metrics schema version and returns the number of series written
// (a histogram writes five).
func (r *Registry) WriteSnapshot(w io.Writer, scale int) (int, error) {
	snap := Snapshot{Schema: MetricsSchema, Scale: scale, Metrics: r.Flat()}
	if snap.Metrics == nil {
		snap.Metrics = map[string]uint64{}
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(b); err != nil {
		return 0, err
	}
	if err := bw.WriteByte('\n'); err != nil {
		return 0, err
	}
	return len(snap.Metrics), bw.Flush()
}

// ReadSnapshot parses a snapshot produced by WriteSnapshot, rejecting
// unknown schema versions.
func ReadSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("trace: bad metrics snapshot: %w", err)
	}
	if snap.Schema != MetricsSchema {
		return nil, fmt.Errorf("trace: metrics snapshot schema %q, want %q", snap.Schema, MetricsSchema)
	}
	return &snap, nil
}
