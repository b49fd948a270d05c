// Command benchgate is the repo's performance-record tool: it compares a
// current series against a checked-in baseline under one tolerance and
// exits non-zero on a move past it, so `make check` fails
// when a change moves the simulated numbers, and it records new rows into
// the micro-benchmark ledger.
//
// Modes:
//
//	benchgate -validate FILE...
//	    Parse and validate each baseline (schema, required fields, monotone
//	    dates for trajectories). The schema-hygiene half of the gate.
//
//	benchgate -baseline BENCH_trace.json -run
//	    Re-run the benchmark suite at the baseline snapshot's scale — the
//	    exact path `vgiw-experiments -metrics` records — and compare the
//	    resulting vgiw-metrics/v1 series against the baseline.
//
//	go test -run '^$' -bench . ./internal/engine/ |
//	    benchgate -baseline BENCH_engine.json -current -
//	    Read a `go test -bench` stream on stdin and echo it to stdout. Each
//	    benchmark becomes one row at the current commit and date: the
//	    fastest of repeated runs (-count N), named without go test's
//	    GOMAXPROCS suffix, with its ns/op and any threads/s metric. The rows
//	    are folded into a copy of the vgiw-bench/v1 trajectory, and the
//	    latest ns/op per benchmark is compared; benchmarks absent from the
//	    stream keep their last row. A stream with no benchmark line, or with
//	    a FAIL or panic: line, exits 2.
//
//	benchgate -baseline OLD -current NEW
//	    Compare two baseline files offline (both vgiw-metrics/v1 snapshots,
//	    or both vgiw-bench/v1 trajectories, compared by latest ns/op).
//
// The default tolerance is 0 — exact match — which the simulators earn by
// being deterministic: equal specs produce byte-identical metrics.
// -tolerance loosens every metric by a fraction of its baseline value (the
// on-demand engine-ledger comparison uses it). -update writes the freshly
// produced series back
// to the baseline instead of failing: the snapshot -run made, or the
// trajectory with the stream's rows recorded. Recording is idempotent per
// (commit, bench) and leaves every other row byte-for-byte as it was.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/trace"
)

// compareSeries checks cur against base. A metric missing from cur, or
// moved beyond tol (a fraction of its baseline value), is a failure; a
// metric only in cur is a warning (new metrics are growth, not regression).
// Output is name-sorted.
func compareSeries(base, cur map[string]float64, tol float64) (fails, warns []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bv := base[name]
		cv, ok := cur[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing (baseline %g)", name, bv))
			continue
		}
		diff := cv - bv
		if diff < 0 {
			diff = -diff
		}
		limit := tol * bv
		if limit < 0 {
			limit = -limit
		}
		if diff > limit {
			fails = append(fails, fmt.Sprintf("%s: %g, baseline %g (Δ %+g, tolerance %g)", name, cv, bv, cv-bv, limit))
		}
	}
	extra := make([]string, 0)
	for name := range cur {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		warns = append(warns, fmt.Sprintf("%s: new metric (%g), not in baseline", name, cur[name]))
	}
	return fails, warns
}

// runCurrentSeries reproduces the baseline snapshot's series by running the
// full suite at its scale, exactly as `vgiw-experiments -metrics` does.
func runCurrentSeries(scale int) (map[string]float64, *trace.Registry, error) {
	opt := bench.DefaultOptions()
	opt.Scale = scale
	opt.Cache = bench.NewArtifactCache()
	suite, err := bench.RunSuite(opt)
	if err != nil {
		return nil, nil, err
	}
	series := make(map[string]float64, len(suite.Metrics.Names()))
	for name, v := range suite.Metrics.Flat() {
		series[name] = float64(v)
	}
	return series, suite.Metrics, nil
}

func main() {
	var (
		validate  = flag.Bool("validate", false, "validate baseline files (args) and exit")
		baseline  = flag.String("baseline", "", "baseline file to gate against")
		current   = flag.String("current", "", "current series file to compare, or - for a `go test -bench` stream on stdin")
		run       = flag.Bool("run", false, "produce the current series by running the suite at the baseline's scale")
		tolerance = flag.Float64("tolerance", 0, "global tolerance as a fraction of the baseline value (0 = exact)")
		update    = flag.Bool("update", false, "write the freshly produced series (-run or -current -) back to the baseline")
	)
	flag.Parse()

	switch {
	case *validate:
		os.Exit(validateFiles(flag.Args()))
	case *baseline == "":
		fmt.Fprintln(os.Stderr, "benchgate: need -validate FILE... or -baseline FILE")
		os.Exit(2)
	case *update && !*run && *current != "-":
		fmt.Fprintln(os.Stderr, "benchgate: -update needs a freshly produced series (-run or -current -)")
		os.Exit(2)
	}

	base, err := bench.LoadBaseline(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if err := base.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *baseline, err)
		os.Exit(1)
	}

	var curSeries map[string]float64
	var write func(io.Writer) error // renders the fresh series for -update
	switch {
	case *run:
		if base.Kind() != "metrics" {
			fmt.Fprintf(os.Stderr, "benchgate: -run gates metric snapshots; %s is a %s baseline\n", *baseline, base.Kind())
			os.Exit(2)
		}
		scale := base.Snapshot.Scale
		if scale <= 0 {
			scale = 1
		}
		fmt.Fprintf(os.Stderr, "benchgate: running suite at scale %d against %s (%d metrics)...\n",
			scale, *baseline, len(base.Series()))
		var reg *trace.Registry
		curSeries, reg, err = runCurrentSeries(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: suite: %v\n", err)
			os.Exit(2)
		}
		write = func(w io.Writer) error { _, err := reg.WriteSnapshot(w, base.Snapshot.Scale); return err }
	case *current == "-":
		if base.Kind() != "trajectory" {
			fmt.Fprintf(os.Stderr, "benchgate: -current - records benchmark rows; %s is a %s baseline\n", *baseline, base.Kind())
			os.Exit(2)
		}
		rows, err := readBenchStream(os.Stdin, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: stdin: %v\n", err)
			os.Exit(2)
		}
		commit, date := gitCommit(), time.Now().UTC().Format("2006-01-02")
		for i := range rows {
			rows[i].Commit, rows[i].Date = commit, date
		}
		traj := &bench.Trajectory{Entries: slices.Clone(base.Trajectory.Entries)}
		traj.Record(rows)
		curSeries = (&bench.Baseline{Trajectory: traj}).Series()
		write = func(w io.Writer) error { return writeTrajectory(w, traj) }
	case *current != "":
		cur, err := bench.LoadBaseline(*current)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		if cur.Kind() != base.Kind() {
			fmt.Fprintf(os.Stderr, "benchgate: cannot compare %s baseline to %s baseline\n", base.Kind(), cur.Kind())
			os.Exit(2)
		}
		curSeries = cur.Series()
	default:
		fmt.Fprintln(os.Stderr, "benchgate: need -run or -current FILE|- alongside -baseline")
		os.Exit(2)
	}

	fails, warns := compareSeries(base.Series(), curSeries, *tolerance)
	for _, wmsg := range warns {
		fmt.Fprintf(os.Stderr, "benchgate: note: %s\n", wmsg)
	}
	if *update {
		for _, fmsg := range fails {
			fmt.Fprintf(os.Stderr, "benchgate: moved %s\n", fmsg)
		}
		if err := writeBaseline(*baseline, write); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: update: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchgate: wrote %s (%d series; %d moved)\n", *baseline, len(curSeries), len(fails))
		return
	}
	if len(fails) > 0 {
		for _, fmsg := range fails {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s\n", fmsg)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %d metric(s) moved beyond tolerance against %s\n", len(fails), *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: ok — %d metrics within tolerance of %s\n", len(base.Series()), *baseline)
}

// readBenchStream copies a `go test -bench` stream from in to out and
// returns one row per benchmark: its ns/op and, when the benchmark reports
// one, its threads/s metric. Repeated runs (go test -count N) keep the
// fastest, the run least disturbed by machine noise. A FAIL or panic: line,
// or no benchmark line at all, is an error, so a broken benchmark fails the
// pipe it feeds.
func readBenchStream(in io.Reader, out io.Writer) ([]bench.TrajectoryEntry, error) {
	var rows []bench.TrajectoryEntry
	var failed string
	sc := bufio.NewScanner(io.TeeReader(in, out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if failed == "" && (strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "panic:")) {
			failed = line
		}
		// "BenchmarkName-8  100  12345 ns/op  [value unit]..."
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		row := bench.TrajectoryEntry{Bench: f[0]}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				row.NsPerOp = v
			case "threads/s":
				row.ThreadsPerSec = v
			}
		}
		rows = append(rows, row)
	}
	switch {
	case sc.Err() != nil:
		return nil, sc.Err()
	case failed != "":
		return nil, fmt.Errorf("benchmark run failed: %s", failed)
	case len(rows) == 0:
		return nil, fmt.Errorf("no benchmark lines")
	}
	stripUniformSuffix(rows)
	idx := make(map[string]int)
	fastest := rows[:0]
	for _, r := range rows {
		if i, ok := idx[r.Bench]; ok {
			if r.NsPerOp < fastest[i].NsPerOp {
				fastest[i] = r
			}
			continue
		}
		idx[r.Bench] = len(fastest)
		fastest = append(fastest, r)
	}
	return fastest, nil
}

// stripUniformSuffix removes the GOMAXPROCS "-N" suffix from benchmark names,
// so trajectory names stay stable across machines — but only when every
// benchmark in the stream carries the same numeric suffix, which is the
// signature of go test's procs decoration. On GOMAXPROCS=1 machines go test
// appends no suffix at all, and sub-benchmark labels that legitimately end in
// digits ("banks-32") would otherwise be corrupted into another series'
// name; a stream whose trailing numbers differ can only be such labels, and
// is left untouched. (The one remaining ambiguity — a stream where every
// label coincidentally ends in the same number and GOMAXPROCS is 1 — is
// avoided by benchmarking more than one series per run, as the Makefile
// targets do.)
func stripUniformSuffix(rows []bench.TrajectoryEntry) {
	sfx := ""
	for i, r := range rows {
		j := strings.LastIndexByte(r.Bench, '-')
		if j <= 0 {
			return
		}
		d := r.Bench[j+1:]
		if _, err := strconv.Atoi(d); err != nil {
			return
		}
		if i == 0 {
			sfx = d
		} else if d != sfx {
			return
		}
	}
	for i := range rows {
		rows[i].Bench = rows[i].Bench[:strings.LastIndexByte(rows[i].Bench, '-')]
	}
}

// gitCommit names the commit a recorded row belongs to.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeTrajectory encodes t in the checked-in file's layout (two-space
// indent, trailing newline), so recording rows only inserts lines.
func writeTrajectory(w io.Writer, t *bench.Trajectory) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// writeBaseline replaces the file at path with what write renders.
func writeBaseline(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateFiles checks each file parses under a known baseline schema and
// passes structural validation; returns the process exit code.
func validateFiles(files []string) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: -validate needs baseline files as arguments")
		return 2
	}
	code := 0
	for _, name := range files {
		b, err := bench.LoadBaseline(name)
		if err == nil {
			err = b.Validate()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %v\n", name, err)
			code = 1
			continue
		}
		fmt.Fprintf(os.Stderr, "benchgate: ok %s (%s, %d series)\n", name, b.Kind(), len(b.Series()))
	}
	return code
}
