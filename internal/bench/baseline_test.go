package bench

import (
	"path/filepath"
	"testing"
)

// TestCheckedInBaselinesParse is the satellite gate for the unified loader:
// both checked-in baseline files must parse under their declared schemas and
// satisfy the monotone-date invariant, so cmd/benchgate can consume either.
func TestCheckedInBaselinesParse(t *testing.T) {
	for _, tc := range []struct {
		file string
		kind string
	}{
		{"BENCH_engine.json", "trajectory"},
		{"BENCH_trace.json", "metrics"},
	} {
		b, err := LoadBaseline(filepath.Join("..", "..", tc.file))
		if err != nil {
			t.Errorf("%s: %v", tc.file, err)
			continue
		}
		if b.Kind() != tc.kind {
			t.Errorf("%s: kind %q, want %q", tc.file, b.Kind(), tc.kind)
		}
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", tc.file, err)
		}
		if len(b.Series()) == 0 {
			t.Errorf("%s: empty series", tc.file)
		}
	}
}

func TestParseBaselineRejectsUnknownSchema(t *testing.T) {
	if _, err := ParseBaseline([]byte(`{"schema":"vgiw-bench/v999","entries":[]}`), "x"); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ParseBaseline([]byte(`not json`), "x"); err == nil {
		t.Error("non-JSON accepted")
	}
}

func TestBaselineValidateMonotoneDates(t *testing.T) {
	b := &Baseline{Path: "x", Trajectory: &Trajectory{Schema: BenchSchema, Entries: []TrajectoryEntry{
		{Commit: "a", Date: "2026-08-02", Bench: "BenchmarkX", NsPerOp: 100},
		{Commit: "b", Date: "2026-08-01", Bench: "BenchmarkX", NsPerOp: 90},
	}}}
	if err := b.Validate(); err == nil {
		t.Error("backwards dates accepted")
	}
	b.Trajectory.Entries[1].Date = "2026-08-02"
	if err := b.Validate(); err != nil {
		t.Errorf("equal dates rejected: %v", err)
	}
}

// TestTrajectoryRecordIdempotent pins the bench-record satellite: recording
// the same (commit, bench) twice replaces in place instead of duplicating,
// while new commits still append.
func TestTrajectoryRecordIdempotent(t *testing.T) {
	var traj Trajectory
	traj.Record([]TrajectoryEntry{
		{Commit: "aaa", Date: "2026-08-01", Bench: "BenchmarkX", NsPerOp: 100},
		{Commit: "aaa", Date: "2026-08-01", Bench: "BenchmarkY", NsPerOp: 50},
	})
	// Re-record the same commit with refined numbers: no growth, values move.
	traj.Record([]TrajectoryEntry{
		{Commit: "aaa", Date: "2026-08-02", Bench: "BenchmarkX", NsPerOp: 80},
	})
	if len(traj.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (re-record must replace, not append)", len(traj.Entries))
	}
	if traj.Entries[0].NsPerOp != 80 || traj.Entries[0].Date != "2026-08-02" {
		t.Errorf("entry 0 not replaced in place: %+v", traj.Entries[0])
	}
	if traj.Entries[0].Bench != "BenchmarkX" || traj.Entries[1].Bench != "BenchmarkY" {
		t.Errorf("order disturbed: %+v", traj.Entries)
	}
	// A new commit appends.
	traj.Record([]TrajectoryEntry{
		{Commit: "bbb", Date: "2026-08-03", Bench: "BenchmarkX", NsPerOp: 70},
	})
	if len(traj.Entries) != 3 || traj.Entries[2].Commit != "bbb" {
		t.Fatalf("new commit did not append: %+v", traj.Entries)
	}
	if s := (&Baseline{Trajectory: &traj}).Series(); s["BenchmarkX"] != 70 || s["BenchmarkY"] != 50 {
		t.Errorf("Series() = %v, want X at its newest row and Y at its own", s)
	}
	if traj.Schema != BenchSchema {
		t.Errorf("schema = %q", traj.Schema)
	}
}
