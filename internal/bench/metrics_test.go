package bench

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"

	"vgiw/internal/kernels"
	"vgiw/internal/trace"
)

func TestCollectMetrics(t *testing.T) {
	runs := allRuns(t)
	reg := CollectMetrics(runs)
	flat := reg.Flat()
	if got := flat["suite/kernels"]; got != uint64(len(runs)) {
		t.Errorf("suite/kernels = %d, want %d", got, len(runs))
	}
	for _, r := range runs {
		p := r.Spec.Name + "/"
		if flat[p+"vgiw.cycles"] == 0 {
			t.Errorf("%svgiw.cycles missing or zero", p)
		}
		if flat[p+"simt.cycles"] == 0 {
			t.Errorf("%ssimt.cycles missing or zero", p)
		}
		if (r.SGMF != nil) != (flat[p+"sgmf.cycles"] != 0) {
			t.Errorf("%ssgmf.cycles presence does not match the SGMF run", p)
		}
		// Dense op counters: every unit class appears even when unused.
		for _, cl := range []string{"alu", "scu", "ldst", "lvu", "sju", "cvu"} {
			if _, ok := flat[p+"vgiw.ops."+cl]; !ok {
				t.Errorf("%svgiw.ops.%s missing (op counters must be dense)", p, cl)
			}
		}
	}
	// Histograms expand in Flat.
	if flat[runs[0].Spec.Name+"/vgiw.block_threads.count"] == 0 {
		t.Errorf("block_threads histogram missing")
	}

	// The suffix set is identical no matter which kernels ran — spot-check
	// that per-kernel names collapse onto shared suffixes.
	suffixes := MetricSuffixes(reg)
	want := map[string]bool{"vgiw.cycles": true, "simt.rf.reads": true, "sgmf.cycles": true}
	for _, s := range suffixes {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("MetricSuffixes missing %v", want)
	}
}

// TestOptionsTracePlumbing checks the harness routes one sink into all three
// machines: a traced SGMF-mappable kernel must produce events in every
// backend's category, and AllocProcess must have named all three processes.
func TestOptionsTracePlumbing(t *testing.T) {
	var spec kernels.Spec
	for _, s := range kernels.All() {
		if s.SGMF {
			spec = s
			break
		}
	}
	if spec.Name == "" {
		t.Skip("no SGMF-mappable kernel in the registry")
	}
	opt := DefaultOptions()
	opt.Trace = trace.NewSink(trace.CatAll)
	kr, err := RunOneCtx(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if kr.SGMF == nil {
		t.Fatalf("%s did not run on SGMF", spec.Name)
	}
	if opt.Trace.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	var buf bytes.Buffer
	if err := opt.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("traced run export invalid: %v", err)
	}
	out := buf.String()
	for _, proc := range []string{spec.Name + "/vgiw", spec.Name + "/simt", spec.Name + "/sgmf"} {
		if !strings.Contains(out, `"`+proc+`"`) {
			t.Errorf("trace missing process %q", proc)
		}
	}
}

// TestTelemetryTableCSVRoundTrip renders the harness telemetry (per-kernel
// StageTimes + cache counters) and re-parses the CSV form.
func TestTelemetryTableCSVRoundTrip(t *testing.T) {
	runs := allRuns(t)
	s := &SuiteResult{Runs: runs, Parallelism: 1}
	for _, kr := range runs {
		s.Stages.Add(kr.Stages)
	}
	tbl := TelemetryTable(s)

	var human bytes.Buffer
	if err := tbl.Write(&human); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"simulate_ms", "TOTAL", "cache workload hits/misses", "cache simt_run hits/misses"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("human telemetry output missing %q", want)
		}
	}

	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("telemetry CSV does not re-parse: %v", err)
	}
	// Header + one row per kernel + TOTAL + one cache row per tier.
	if want := len(runs) + 2 + int(numTiers); len(rec) != want {
		t.Fatalf("telemetry CSV has %d records, want %d", len(rec), want)
	}
	if rec[0][0] != "kernel" || rec[0][5] != "simulate_ms" {
		t.Errorf("telemetry CSV header = %v", rec[0])
	}
	for i, kr := range runs {
		if rec[i+1][0] != kr.Spec.Name {
			t.Errorf("row %d kernel = %q, want %q", i+1, rec[i+1][0], kr.Spec.Name)
		}
	}
}
