package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"vgiw/internal/trace"
)

// BenchSchema versions the benchmark-trajectory file format
// (BENCH_engine.json). The metrics-snapshot format (BENCH_trace.json) is
// versioned separately by trace.MetricsSchema; LoadBaseline accepts either,
// so regression tooling (cmd/benchgate) consumes both checked-in baselines
// through one loader.
const BenchSchema = "vgiw-bench/v1"

// TrajectoryEntry is one recorded benchmark result: a (commit, bench) point
// on the repo's performance trajectory.
type TrajectoryEntry struct {
	Commit        string  `json:"commit"`
	Date          string  `json:"date"` // YYYY-MM-DD (UTC)
	Bench         string  `json:"bench"`
	NsPerOp       float64 `json:"ns_per_op"`
	ThreadsPerSec float64 `json:"threads_per_sec,omitempty"`
	Note          string  `json:"note,omitempty"`
}

// Trajectory is the schema-versioned envelope of BENCH_engine.json: the full
// benchmark history, oldest first.
type Trajectory struct {
	Schema  string            `json:"schema"`
	Entries []TrajectoryEntry `json:"entries"`
}

// Record folds freshly measured results into the trajectory idempotently:
// an existing entry with the same (commit, bench) key is replaced in place —
// re-running `make bench-record` on one commit refines that commit's numbers
// instead of appending duplicates — and new keys append in order.
func (t *Trajectory) Record(results []TrajectoryEntry) {
	t.Schema = BenchSchema
	type key struct{ commit, bench string }
	idx := make(map[key]int, len(t.Entries))
	for i, e := range t.Entries {
		idx[key{e.Commit, e.Bench}] = i // last occurrence wins (legacy dups)
	}
	for _, r := range results {
		k := key{r.Commit, r.Bench}
		if i, ok := idx[k]; ok {
			t.Entries[i] = r
			continue
		}
		idx[k] = len(t.Entries)
		t.Entries = append(t.Entries, r)
	}
}

// Baseline is the unified view of a checked-in performance baseline file.
// Exactly one of Trajectory and Snapshot is non-nil, depending on the file's
// schema header.
type Baseline struct {
	Path       string
	Trajectory *Trajectory     // vgiw-bench/v1 files (BENCH_engine.json)
	Snapshot   *trace.Snapshot // vgiw-metrics/v1 files (BENCH_trace.json)
}

// Kind names the baseline's flavor: "trajectory" or "metrics".
func (b *Baseline) Kind() string {
	if b.Trajectory != nil {
		return "trajectory"
	}
	return "metrics"
}

// Series flattens the baseline into one comparable name → value map: metric
// values for snapshots, the latest ns/op per bench name for trajectories.
func (b *Baseline) Series() map[string]float64 {
	out := map[string]float64{}
	switch {
	case b.Snapshot != nil:
		for name, v := range b.Snapshot.Metrics {
			out[name] = float64(v)
		}
	case b.Trajectory != nil:
		for _, e := range b.Trajectory.Entries {
			out[e.Bench] = e.NsPerOp // entries are oldest-first; last wins
		}
	}
	return out
}

// Validate checks the invariants the checked-in files promise: a known
// schema (established at parse time), at least one data point, and — for
// trajectories — dates that never run backwards (the file is append-order
// history; a date regression means hand-editing broke it).
func (b *Baseline) Validate() error {
	if b.Snapshot != nil {
		if len(b.Snapshot.Metrics) == 0 {
			return fmt.Errorf("%s: metrics snapshot is empty", b.Path)
		}
		return nil
	}
	t := b.Trajectory
	if len(t.Entries) == 0 {
		return fmt.Errorf("%s: trajectory has no entries", b.Path)
	}
	prev := ""
	for i, e := range t.Entries {
		if e.Bench == "" || e.Commit == "" {
			return fmt.Errorf("%s: entry %d: missing bench or commit", b.Path, i)
		}
		if len(e.Date) != len("2006-01-02") {
			return fmt.Errorf("%s: entry %d (%s): bad date %q", b.Path, i, e.Bench, e.Date)
		}
		// ISO dates compare correctly as strings.
		if prev != "" && e.Date < prev {
			return fmt.Errorf("%s: entry %d (%s): date %s precedes %s — trajectory must be monotone in date",
				b.Path, i, e.Bench, e.Date, prev)
		}
		prev = e.Date
	}
	return nil
}

// ParseBaseline sniffs the schema header and parses data as a trajectory or
// a metrics snapshot. Unknown schemas are rejected by name, so a bumped
// format fails loudly instead of comparing garbage.
func ParseBaseline(data []byte, path string) (*Baseline, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch head.Schema {
	case BenchSchema:
		var t Trajectory
		if err := json.Unmarshal(data, &t); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &Baseline{Path: path, Trajectory: &t}, nil
	case trace.MetricsSchema:
		snap, err := trace.ReadSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &Baseline{Path: path, Snapshot: snap}, nil
	default:
		return nil, fmt.Errorf("%s: unknown baseline schema %q (want %q or %q)",
			path, head.Schema, BenchSchema, trace.MetricsSchema)
	}
}

// LoadBaseline reads and parses one baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseBaseline(data, path)
}
