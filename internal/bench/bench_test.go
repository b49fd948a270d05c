package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"vgiw/internal/kernels"
)

// runsOnce caches a full harness run for the shape tests below (the suite
// takes a couple of seconds).
var cachedRuns []*KernelRun

func allRuns(t *testing.T) []*KernelRun {
	t.Helper()
	if cachedRuns == nil {
		runs, err := RunAll(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cachedRuns = runs
	}
	return cachedRuns
}

// TestHarnessValidatesEveryMachine re-checks that RunAll succeeded — RunOneCtx
// verifies every machine's memory image against the host reference, so a
// pass here means all three simulators computed every kernel correctly.
func TestHarnessValidatesEveryMachine(t *testing.T) {
	runs := allRuns(t)
	if len(runs) != len(kernels.All()) {
		t.Fatalf("ran %d kernels, want %d", len(runs), len(kernels.All()))
	}
	sgmfCount := 0
	for _, r := range runs {
		if r.VGIW == nil || r.SIMT == nil {
			t.Fatalf("%s missing machine results", r.Spec.Name)
		}
		if r.SGMF != nil {
			sgmfCount++
		}
	}
	if sgmfCount < 4 {
		t.Errorf("only %d SGMF-mappable kernels, want >= 4 (Figure 8 subset)", sgmfCount)
	}
}

// Figure 7 shape: VGIW wins overall; compute/divergent kernels lead, the
// copy kernel (CFD time_step) trails — the paper's ranking, compressed in
// magnitude (our SIMT baseline is more idealized than GPGPU-Sim's Fermi).
func TestFig7Shape(t *testing.T) {
	runs := allRuns(t)
	var all, compute []float64
	var timeStep, best float64
	for _, r := range runs {
		s := r.Speedup()
		all = append(all, s)
		if r.Spec.Class == kernels.Compute {
			compute = append(compute, s)
		}
		if r.Spec.Name == "cfd.time_step" {
			timeStep = s
		}
		if s > best {
			best = s
		}
	}
	g := Geomean(all)
	if g < 0.85 || g > 6 {
		t.Errorf("overall speedup geomean %.2f outside plausible band [0.85, 6]", g)
	}
	if best < 2 {
		t.Errorf("best kernel speedup %.2f, want >= 2 (paper: up to 11x)", best)
	}
	if timeStep >= g {
		t.Errorf("cfd.time_step (%.2f) should trail the mean (%.2f): the paper's slowdown case", timeStep, g)
	}
	if gc := Geomean(compute); gc < g*0.9 {
		t.Errorf("compute kernels (%.2f) should lead the overall mean (%.2f)", gc, g)
	}
}

// Figure 3 shape: LVC traffic is a small fraction of RF traffic (paper:
// roughly one tenth on average).
func TestFig3Shape(t *testing.T) {
	runs := allRuns(t)
	var ratios []float64
	for _, r := range runs {
		ratio := r.LVCOverRF()
		if ratio > 0.5 {
			t.Errorf("%s: LVC/RF ratio %.2f implausibly high", r.Spec.Name, ratio)
		}
		ratios = append(ratios, ratio)
	}
	if m := mean(ratios); m > 0.25 || m <= 0 {
		t.Errorf("mean LVC/RF ratio %.3f, want (0, 0.25] (paper: ~0.1)", m)
	}
}

// Figure 8/11 shape: VGIW vs SGMF is close to parity on the small mappable
// kernels, with wins on the divergent ones (paper: 1.45x perf, 1.33x energy,
// individual kernels on both sides of 1).
func TestFig8And11Shape(t *testing.T) {
	runs := allRuns(t)
	var sp, eff []float64
	for _, r := range runs {
		if r.SGMF == nil {
			continue
		}
		sp = append(sp, r.SpeedupVsSGMF())
		eff = append(eff, r.EnergyEffVsSGMF())
	}
	if g := Geomean(sp); g < 0.7 || g > 3 {
		t.Errorf("VGIW/SGMF speedup geomean %.2f outside [0.7, 3] (paper: ~1.45)", g)
	}
	if g := Geomean(eff); g < 0.7 || g > 3 {
		t.Errorf("VGIW/SGMF efficiency geomean %.2f outside [0.7, 3] (paper: ~1.33)", g)
	}
}

// Figure 9/10 shape: the energy win concentrates in the core (paper Figure
// 10: core-level ratio exceeds die- and system-level ratios, which is what
// "motivates further research on power efficient memory systems").
func TestFig9And10Shape(t *testing.T) {
	runs := allRuns(t)
	var sys, core []float64
	for _, r := range runs {
		sys = append(sys, r.EnergyEff("system"))
		core = append(core, r.EnergyEff("core"))
	}
	gs, gc := Geomean(sys), Geomean(core)
	if gs < 0.8 || gs > 4 {
		t.Errorf("system-level efficiency geomean %.2f outside [0.8, 4] (paper: 1.75)", gs)
	}
	if gc <= gs {
		t.Errorf("core-level efficiency (%.2f) must exceed system-level (%.2f)", gc, gs)
	}
	if gc < 1.2 {
		t.Errorf("core-level efficiency geomean %.2f, want >= 1.2", gc)
	}
}

// Reconfiguration overhead: small relative to runtime (paper §3.2: 0.18%
// average; our laptop-scale vectors amortize less, so the bound is looser).
func TestReconfigOverheadShape(t *testing.T) {
	runs := allRuns(t)
	var ohs []float64
	for _, r := range runs {
		ohs = append(ohs, r.VGIW.ConfigOverhead())
	}
	if m := mean(ohs); m > 0.10 {
		t.Errorf("mean reconfiguration overhead %.3f, want <= 0.10", m)
	}
	if md := median(ohs); md > 0.05 {
		t.Errorf("median reconfiguration overhead %.3f, want <= 0.05", md)
	}
}

// Tables render without error and contain every kernel.
func TestTablesRender(t *testing.T) {
	runs := allRuns(t)
	opt := DefaultOptions()
	var sb strings.Builder
	tables := []*struct {
		name string
		w    func() error
	}{
		{"table1", func() error { return Table1(opt).Write(&sb) }},
		{"table2", func() error { return Table2(runs).Write(&sb) }},
		{"fig3", func() error { return Fig3(runs).Write(&sb) }},
		{"fig7", func() error { return Fig7(runs).Write(&sb) }},
		{"fig8", func() error { return Fig8(runs).Write(&sb) }},
		{"fig9", func() error { return Fig9(runs).Write(&sb) }},
		{"fig10", func() error { return Fig10(runs).Write(&sb) }},
		{"fig11", func() error { return Fig11(runs).Write(&sb) }},
		{"reconfig", func() error { return ReconfigTable(runs).Write(&sb) }},
		{"util", func() error { return UtilizationTable(runs).Write(&sb) }},
	}
	for _, tb := range tables {
		if err := tb.w(); err != nil {
			t.Fatalf("%s: %v", tb.name, err)
		}
	}
	out := sb.String()
	for _, spec := range kernels.All() {
		if !strings.Contains(out, spec.Name) {
			t.Errorf("tables missing kernel %s", spec.Name)
		}
	}
	if !strings.Contains(out, "GEOMEAN") {
		t.Error("tables missing summary rows")
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Errorf("Geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean([]float64{0, 4}); g != 4 {
		t.Errorf("zeros must be skipped, got %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("empty geomean = %v", g)
	}
}

func TestJSONExport(t *testing.T) {
	runs := allRuns(t)
	var sb strings.Builder
	if err := (&SuiteResult{Runs: runs}).WriteJSON(&sb, 1); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(rep.Runs) != len(runs) {
		t.Fatalf("json has %d runs, want %d", len(rep.Runs), len(runs))
	}
	if rep.GeomeanSpeedup <= 0 || rep.GeomeanEffCore <= 0 {
		t.Error("geomeans missing")
	}
	for _, r := range rep.Runs {
		if r.Kernel == "" || r.VGIWCycles <= 0 || r.SIMTCycles <= 0 {
			t.Errorf("incomplete run record: %+v", r)
		}
	}
}
