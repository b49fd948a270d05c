package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/server"
	"vgiw/internal/store"
)

func TestCompareSeriesExact(t *testing.T) {
	base := map[string]float64{"a": 10, "b": 20, "c": 0}
	cur := map[string]float64{"a": 10, "b": 20, "c": 0}
	fails, warns := compareSeries(base, cur, 0, nil)
	if len(fails) != 0 || len(warns) != 0 {
		t.Fatalf("identical series: fails=%v warns=%v", fails, warns)
	}
}

func TestCompareSeriesRegressionAndMissing(t *testing.T) {
	base := map[string]float64{"a": 10, "b": 20}
	cur := map[string]float64{"a": 11} // a moved, b missing
	fails, _ := compareSeries(base, cur, 0, nil)
	if len(fails) != 2 {
		t.Fatalf("fails = %v, want a-moved and b-missing", fails)
	}
	// Name-sorted: "a" first.
	if !strings.Contains(fails[0], "a:") || !strings.Contains(fails[1], "b: missing") {
		t.Errorf("fails = %v", fails)
	}
}

func TestCompareSeriesTolerance(t *testing.T) {
	base := map[string]float64{"vgiw/cycles": 100, "vgiw/ops": 50}
	cur := map[string]float64{"vgiw/cycles": 104, "vgiw/ops": 50}
	if fails, _ := compareSeries(base, cur, 0.05, nil); len(fails) != 0 {
		t.Errorf("4%% drift under 5%% global tolerance failed: %v", fails)
	}
	if fails, _ := compareSeries(base, cur, 0.01, nil); len(fails) != 1 {
		t.Errorf("4%% drift over 1%% tolerance passed")
	}
	// Per-metric rule overrides the (tight) global.
	rules := tolRules{{pattern: "vgiw/cyc*", frac: 0.10}}
	if fails, _ := compareSeries(base, cur, 0, rules); len(fails) != 0 {
		t.Errorf("per-metric rule not applied: %v", fails)
	}
}

func TestCompareSeriesNewMetricWarnsOnly(t *testing.T) {
	base := map[string]float64{"a": 1}
	cur := map[string]float64{"a": 1, "z": 9}
	fails, warns := compareSeries(base, cur, 0, nil)
	if len(fails) != 0 {
		t.Errorf("new metric treated as failure: %v", fails)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "z") {
		t.Errorf("warns = %v", warns)
	}
}

func TestTolRulesFirstMatchWins(t *testing.T) {
	var rules tolRules
	if err := rules.Set("vgiw/*=0.5"); err != nil {
		t.Fatal(err)
	}
	if err := rules.Set("*=0.1"); err != nil {
		t.Fatal(err)
	}
	if got := tolFor("vgiw/cycles", 0, rules); got != 0.5 {
		t.Errorf("tolFor(vgiw/cycles) = %g, want first rule's 0.5", got)
	}
	if got := tolFor("mem/hits", 0, rules); got != 0.1 {
		t.Errorf("tolFor(mem/hits) = %g, want 0.1", got)
	}
	if got := tolFor("anything", 0.2, nil); got != 0.2 {
		t.Errorf("no rules: tolFor = %g, want global 0.2", got)
	}
	if err := rules.Set("no-equals-sign"); err == nil {
		t.Error("malformed rule accepted")
	}
	if err := rules.Set("a=notafloat"); err == nil {
		t.Error("malformed fraction accepted")
	}
}

func TestValidateFiles(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"schema":"vgiw-metrics/v1","scale":2,"metrics":{"a":1}}`), 0o644)
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema":"nonsense/v9"}`), 0o644)

	if code := validateFiles([]string{good}); code != 0 {
		t.Errorf("valid file: exit %d", code)
	}
	if code := validateFiles([]string{good, bad}); code != 1 {
		t.Errorf("invalid file: exit %d, want 1", code)
	}
	if code := validateFiles(nil); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
}

// TestReadBenchStream pins the -current - reader. A broken run is an error,
// so the pipe it feeds fails. A uniform numeric suffix across the stream is
// go test's GOMAXPROCS decoration and comes off; mixed trailing numbers are
// real sub-benchmark labels (bank counts) and must survive, since on
// GOMAXPROCS=1 machines go test appends no suffix and "banks-32" would
// otherwise collapse into the "banks" series. Repeated runs keep the
// fastest, and a threads/s column lands in threads_per_sec.
func TestReadBenchStream(t *testing.T) {
	type row = bench.TrajectoryEntry
	for _, tc := range []struct {
		name    string
		stream  string
		want    []row
		wantErr string
	}{
		{
			name:    "FAIL line",
			stream:  "BenchmarkEngineFast-2 100 9000 ns/op\n--- FAIL: BenchmarkEngineFast\n    vector_bench_test.go:14: boom\nFAIL\n",
			wantErr: "--- FAIL: BenchmarkEngineFast",
		},
		{
			name:    "panic line",
			stream:  "BenchmarkSIMTRun-2 5 80000000 ns/op\npanic: runtime error: index out of range [3] with length 3\n",
			wantErr: "panic: runtime error",
		},
		{
			name:    "build failed",
			stream:  "# vgiw/internal/engine [vgiw/internal/engine.test]\ninternal/engine/x.go:1:1: undefined: foo\nFAIL\tvgiw/internal/engine [build failed]\nFAIL\n",
			wantErr: "[build failed]",
		},
		{name: "empty stream", stream: "", wantErr: "no benchmark lines"},
		{
			name:    "no benchmark line",
			stream:  "goos: linux\ngoarch: amd64\nPASS\nok  \tvgiw/internal/engine\t0.012s\n",
			wantErr: "no benchmark lines",
		},
		{
			name: "uniform procs suffix stripped",
			stream: "BenchmarkEngineHotPath/no-sink-8 100 98000 ns/op\n" +
				"BenchmarkEngineHotPath/vec-8 100 55000 ns/op\n",
			want: []row{{Bench: "BenchmarkEngineHotPath/no-sink", NsPerOp: 98000}, {Bench: "BenchmarkEngineHotPath/vec", NsPerOp: 55000}},
		},
		{
			name: "mixed digit labels kept (GOMAXPROCS=1)",
			stream: "BenchmarkMemAccessWord/banks-32 100 1000 ns/op\n" +
				"BenchmarkMemAccessWord/banks-8 100 1200 ns/op\n",
			want: []row{{Bench: "BenchmarkMemAccessWord/banks-32", NsPerOp: 1000}, {Bench: "BenchmarkMemAccessWord/banks-8", NsPerOp: 1200}},
		},
		{
			name: "digit labels with procs suffix: only procs stripped",
			stream: "BenchmarkMemAccessWord/banks-32-4 100 1000 ns/op\n" +
				"BenchmarkMemAccessWord/banks-8-4 100 1200 ns/op\n",
			want: []row{{Bench: "BenchmarkMemAccessWord/banks-32", NsPerOp: 1000}, {Bench: "BenchmarkMemAccessWord/banks-8", NsPerOp: 1200}},
		},
		{
			name:   "no suffix at all untouched",
			stream: "BenchmarkEngineFast 100 9000 ns/op\n",
			want:   []row{{Bench: "BenchmarkEngineFast", NsPerOp: 9000}},
		},
		{
			name: "count 3 keeps the minimum",
			stream: "BenchmarkA-2 100 120 ns/op 4000 threads/s\n" +
				"BenchmarkB-2 100 300 ns/op\n" +
				"BenchmarkA-2 100 100 ns/op 5000 threads/s\n" +
				"BenchmarkA-2 100 110 ns/op 4500 threads/s\n",
			want: []row{{Bench: "BenchmarkA", NsPerOp: 100, ThreadsPerSec: 5000}, {Bench: "BenchmarkB", NsPerOp: 300}},
		},
		{
			name: "threads per second column recorded",
			stream: "goos: linux\npkg: vgiw/internal/engine\n" +
				"BenchmarkEngineFast-2   \t     100\t     18891 ns/op\t  27102853 threads/s\t       0 B/op\t       0 allocs/op\n" +
				"PASS\nok  \tvgiw/internal/engine\t0.095s\n",
			want: []row{{Bench: "BenchmarkEngineFast", NsPerOp: 18891, ThreadsPerSec: 27102853}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var echo strings.Builder
			got, err := readBenchStream(strings.NewReader(tc.stream), &echo)
			if echo.String() != tc.stream {
				t.Errorf("echo = %q, want the stream unchanged", echo.String())
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q (rows %+v)", err, tc.wantErr, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("rows = %+v\nwant   %+v", got, tc.want)
			}
		})
	}
}

// TestRecordRoundTrip pins recording through the file round trip: the
// writer reproduces the checked-in ledger byte for byte, so a recording only
// inserts rows; re-recording at one commit rewrites that commit's row where
// it sits, a new commit appends; and each benchmark's latest value is its
// own newest row, never another series'.
func TestRecordRoundTrip(t *testing.T) {
	ledger, err := os.ReadFile(filepath.Join("..", "..", "BENCH_engine.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.ParseBaseline(ledger, "BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeTrajectory(&buf, b.Trajectory); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ledger) {
		t.Fatal("writeTrajectory does not reproduce BENCH_engine.json byte for byte")
	}

	path := filepath.Join(t.TempDir(), "traj.json")
	save := func(traj *bench.Trajectory) {
		t.Helper()
		if err := writeBaseline(path, func(w io.Writer) error { return writeTrajectory(w, traj) }); err != nil {
			t.Fatal(err)
		}
	}
	load := func() *bench.Baseline {
		t.Helper()
		b, err := bench.LoadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		return b
	}
	traj := &bench.Trajectory{}
	traj.Record([]bench.TrajectoryEntry{
		{Commit: "aaa111", Date: "2026-08-01", Bench: "BenchmarkA", NsPerOp: 120},
		{Commit: "aaa111", Date: "2026-08-01", Bench: "BenchmarkB", NsPerOp: 900},
	})
	save(traj)

	traj = load().Trajectory
	traj.Record([]bench.TrajectoryEntry{
		{Commit: "aaa111", Date: "2026-08-01", Bench: "BenchmarkA", NsPerOp: 100}, // same key: replace
		{Commit: "bbb222", Date: "2026-08-02", Bench: "BenchmarkA", NsPerOp: 95},  // new commit: append
	})
	save(traj)

	got := load()
	want := []bench.TrajectoryEntry{
		{Commit: "aaa111", Date: "2026-08-01", Bench: "BenchmarkA", NsPerOp: 100},
		{Commit: "aaa111", Date: "2026-08-01", Bench: "BenchmarkB", NsPerOp: 900},
		{Commit: "bbb222", Date: "2026-08-02", Bench: "BenchmarkA", NsPerOp: 95},
	}
	if !slices.Equal(got.Trajectory.Entries, want) {
		t.Fatalf("entries = %+v\nwant      %+v", got.Trajectory.Entries, want)
	}
	if s := got.Series(); s["BenchmarkA"] != 95 || s["BenchmarkB"] != 900 {
		t.Errorf("series = %v, want A at its bbb222 row and B at its own last row", s)
	}
}

// TestSeriesLatestPerBench pins the lookup the trajectory comparison runs
// on: a benchmark is compared against its own newest row, never an unrelated
// series' last entry, and a benchmark with no history has no baseline value.
func TestSeriesLatestPerBench(t *testing.T) {
	b := &bench.Baseline{Trajectory: &bench.Trajectory{Entries: []bench.TrajectoryEntry{
		{Bench: "BenchmarkA", NsPerOp: 100},
		{Bench: "BenchmarkB", NsPerOp: 900},
		{Bench: "BenchmarkA", NsPerOp: 90},
	}}}
	s := b.Series()
	if s["BenchmarkA"] != 90 || s["BenchmarkB"] != 900 {
		t.Fatalf("series = %v, want A=90 (its newest row) and B=900", s)
	}
	if v, ok := s["BenchmarkC"]; ok {
		t.Fatalf("series has BenchmarkC = %v, want no entry", v)
	}
}

// TestComparesStoredHistoryMetrics pins benchgate as the one metric differ
// for stored results: the "metrics" object of a store entry, exactly as GET
// /v1/history/{key} serves it, parses as a vgiw-metrics/v1 baseline, and
// comparing two entries whose specs differ in the VGIW L1 policy reports
// every metric that moved and nothing else.
func TestComparesStoredHistoryMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 1, QueueDepth: 4, RunParallelism: 1, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	specs := []bench.JobSpec{{Kernel: "bfs.kernel1"}, {Kernel: "bfs.kernel1", Mem: "writethrough"}}
	for _, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Wait(context.Background(), j) {
			t.Fatalf("%+v never finished", spec)
		}
	}
	// A drained server has returned from every store write.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	series := make([]map[string]float64, len(specs))
	for i, spec := range specs {
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/history/" + store.Key(spec))
		if err != nil {
			t.Fatal(err)
		}
		var entry struct {
			Metrics json.RawMessage `json:"metrics"`
		}
		err = json.NewDecoder(resp.Body).Decode(&entry)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("history entry %d: status %d, decode %v", i, resp.StatusCode, err)
		}
		b, err := bench.ParseBaseline(entry.Metrics, "metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		series[i] = b.Series()
	}

	var moved []string
	for name, v := range series[0] {
		if cv, ok := series[1][name]; !ok || cv != v {
			moved = append(moved, name)
		}
	}
	slices.Sort(moved)
	const vgiw, simt = "bfs.kernel1/vgiw.cycles", "bfs.kernel1/simt.cycles"
	if _, ok := series[0][simt]; !ok || !slices.Contains(moved, vgiw) || slices.Contains(moved, simt) {
		t.Fatalf("moved = %v, want %s and not %s under a VGIW-only knob", moved, vgiw, simt)
	}
	fails, warns := compareSeries(series[0], series[1], 0, nil)
	if len(fails) != len(moved) || len(warns) != 0 {
		t.Fatalf("benchgate reported %d moved and %d new metrics, want %d and 0:\n%s",
			len(fails), len(warns), len(moved), strings.Join(append(fails, warns...), "\n"))
	}
	for i, name := range moved {
		if !strings.HasPrefix(fails[i], name+": ") {
			t.Errorf("report %d = %q, want metric %s", i, fails[i], name)
		}
	}
}
