package main

import (
	"io"
	"strings"
	"testing"
)

func parse(t *testing.T, stream string) []entry {
	t.Helper()
	return parseStream(strings.NewReader(stream), io.Discard)
}

// TestStripUniformSuffix pins the GOMAXPROCS-suffix heuristic: a uniform
// numeric suffix across the stream is procs decoration and comes off; mixed
// trailing numbers are real sub-benchmark labels (bank counts, conflict
// rates) and must survive — the regression was GOMAXPROCS=1 machines, where
// go test appends no suffix and "banks-32" was silently collapsed into the
// "banks" series.
func TestStripUniformSuffix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream string
		want   []string
	}{
		{
			"uniform procs suffix stripped",
			"BenchmarkEngineHotPath/no-sink-8 100 98000 ns/op\n" +
				"BenchmarkEngineHotPath/vec-8 100 55000 ns/op\n",
			[]string{"BenchmarkEngineHotPath/no-sink", "BenchmarkEngineHotPath/vec"},
		},
		{
			"mixed digit labels kept (GOMAXPROCS=1)",
			"BenchmarkMemAccessWord/banks-32 100 1000 ns/op\n" +
				"BenchmarkMemAccessWord/banks-8 100 1200 ns/op\n",
			[]string{"BenchmarkMemAccessWord/banks-32", "BenchmarkMemAccessWord/banks-8"},
		},
		{
			"digit labels with procs suffix: only procs stripped",
			"BenchmarkMemAccessWord/banks-32-4 100 1000 ns/op\n" +
				"BenchmarkMemAccessWord/banks-8-4 100 1200 ns/op\n",
			[]string{"BenchmarkMemAccessWord/banks-32", "BenchmarkMemAccessWord/banks-8"},
		},
		{
			"no suffix at all untouched",
			"BenchmarkEngineFast 100 9000 ns/op\n",
			[]string{"BenchmarkEngineFast"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results := parse(t, tc.stream)
			stripUniformSuffix(results)
			if len(results) != len(tc.want) {
				t.Fatalf("parsed %d results, want %d", len(results), len(tc.want))
			}
			for i, w := range tc.want {
				if results[i].Bench != w {
					t.Errorf("result %d: name %q, want %q", i, results[i].Bench, w)
				}
			}
		})
	}
}

// TestLatestFiltersByName pins the -check lookup: a new benchmark series must
// be compared against its own history, never an unrelated series' last entry.
func TestLatestFiltersByName(t *testing.T) {
	traj := trajectory{Entries: []entry{
		{Bench: "BenchmarkA", NsPerOp: 100},
		{Bench: "BenchmarkB", NsPerOp: 900},
		{Bench: "BenchmarkA", NsPerOp: 90},
	}}
	got, ok := latest(traj, "BenchmarkA")
	if !ok || got.NsPerOp != 90 {
		t.Fatalf("latest(BenchmarkA) = %+v, %v; want ns=90", got, ok)
	}
	if _, ok := latest(traj, "BenchmarkC"); ok {
		t.Fatal("latest(BenchmarkC) found an entry, want none")
	}
}

func TestCollapseMin(t *testing.T) {
	out := collapseMin([]entry{
		{Bench: "A", NsPerOp: 120},
		{Bench: "B", NsPerOp: 300},
		{Bench: "A", NsPerOp: 100},
	})
	if len(out) != 2 || out[0].Bench != "A" || out[0].NsPerOp != 100 || out[1].NsPerOp != 300 {
		t.Fatalf("collapseMin = %+v", out)
	}
}

// TestRecordReplacesInPlace pins -record's idempotency through the file
// round-trip: re-recording at the same commit rewrites that commit's entry
// where it sits instead of appending a duplicate, while a new commit appends.
func TestRecordReplacesInPlace(t *testing.T) {
	path := t.TempDir() + "/traj.json"
	first := []entry{{Commit: "aaa111", Date: "2026-08-01", Bench: "BenchmarkA", NsPerOp: 120}}
	traj, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	traj.Record(first)
	if err := save(path, traj); err != nil {
		t.Fatal(err)
	}

	traj, err = load(path)
	if err != nil {
		t.Fatal(err)
	}
	traj.Record([]entry{
		{Commit: "aaa111", Date: "2026-08-01", Bench: "BenchmarkA", NsPerOp: 100}, // same key: replace
		{Commit: "bbb222", Date: "2026-08-02", Bench: "BenchmarkA", NsPerOp: 95},  // new commit: append
	})
	if err := save(path, traj); err != nil {
		t.Fatal(err)
	}

	traj, err = load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (replace-in-place, then append): %+v", len(traj.Entries), traj.Entries)
	}
	if traj.Entries[0].NsPerOp != 100 || traj.Entries[0].Commit != "aaa111" {
		t.Errorf("entry 0 = %+v, want the replaced aaa111 point", traj.Entries[0])
	}
	if got, ok := latest(traj, "BenchmarkA"); !ok || got.Commit != "bbb222" {
		t.Errorf("latest = %+v, want the bbb222 point", got)
	}
}
