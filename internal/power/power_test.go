package power

import (
	"context"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/core"
	"vgiw/internal/kernels"
	"vgiw/internal/kir"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
)

// buildCompute is a compute-dense kernel (chain of FP ops per element).
func buildCompute() *kir.Kernel {
	b := kir.NewBuilder("compute")
	b.SetParams(1)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	tid := b.Tid()
	addr := b.Add(b.Param(0), tid)
	v := b.Load(addr, 0)
	for i := 0; i < 12; i++ {
		v = b.FAdd(b.FMul(v, v), v)
	}
	b.Store(addr, 0, v)
	b.Ret()
	return b.MustBuild()
}

func runBoth(t *testing.T, build func() *kir.Kernel, n int) (*core.Result, *simt.Result) {
	t.Helper()
	launch := kir.Launch1D(n/32, 32, 0)
	mk := func() []uint32 {
		m := make([]uint32, n)
		for i := range m {
			m[i] = kir.F32(1.0 + float32(i%7)*0.125)
		}
		return m
	}

	ckV, err := compile.Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	mv, err := core.NewMachine(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rv, err := mv.Run(ckV, launch, mk())
	if err != nil {
		t.Fatal(err)
	}

	ckS, err := compile.Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simt.NewMachine(simt.DefaultConfig()).RunCtx(context.Background(), ckS, launch, mk())
	if err != nil {
		t.Fatal(err)
	}
	return rv, rs
}

func TestBreakdownLevelsNest(t *testing.T) {
	rv, rs := runBoth(t, buildCompute, 1024)
	tab := DefaultTable()
	for _, b := range []Breakdown{VGIW(rv, tab), SIMT(rs, tab)} {
		if b.CoreLevel() <= 0 {
			t.Fatal("core energy must be positive")
		}
		if b.DieLevel() <= b.CoreLevel() {
			t.Error("die level must exceed core level")
		}
		if b.SystemLevel() <= b.DieLevel() {
			t.Error("system level must exceed die level")
		}
	}
}

// The headline claim: on a compute-dense kernel the VGIW core is more
// energy-efficient than the Fermi SM, and the advantage is largest at the
// core level (Figure 10).
func TestVGIWMoreEfficientOnComputeKernel(t *testing.T) {
	rv, rs := runBoth(t, buildCompute, 2048)
	tab := DefaultTable()
	ev, es := VGIW(rv, tab), SIMT(rs, tab)

	coreEff := Efficiency(es.CoreLevel(), ev.CoreLevel())
	sysEff := Efficiency(es.SystemLevel(), ev.SystemLevel())
	if coreEff <= 1 {
		t.Errorf("core-level efficiency %.2f, want > 1", coreEff)
	}
	if sysEff <= 0.7 {
		t.Errorf("system-level efficiency %.2f unreasonably low", sysEff)
	}
	if coreEff < sysEff {
		t.Errorf("core-level efficiency (%.2f) should exceed system-level (%.2f): the win is in the compute engine",
			coreEff, sysEff)
	}
}

// Fermi's pipeline + RF overhead should be a large minority of core energy
// (the ~30% the paper cites for the whole GPU maps to a bigger share of the
// core alone).
func TestFermiPipelineRFShare(t *testing.T) {
	_, rs := runBoth(t, buildCompute, 2048)
	tab := DefaultTable()
	b := SIMT(rs, tab)
	overhead := float64(rs.WarpInstrs)*tab.PipelineWarp + float64(rs.RFReads+rs.RFWrites)*tab.RFWord
	share := overhead / b.CoreLevel()
	if share < 0.2 || share > 0.75 {
		t.Errorf("pipeline+RF share of core = %.2f, want 0.2..0.75", share)
	}
	sysShare := overhead / b.SystemLevel()
	if sysShare < 0.1 || sysShare > 0.6 {
		t.Errorf("pipeline+RF share of system = %.2f, want 0.1..0.6", sysShare)
	}
}

func TestEfficiencyRatio(t *testing.T) {
	if Efficiency(200, 100) != 2 {
		t.Error("Efficiency(200,100) != 2")
	}
	if Efficiency(100, 0) != 0 {
		t.Error("division by zero not guarded")
	}
}

func TestStaticEnergyScalesWithCycles(t *testing.T) {
	rv, _ := runBoth(t, buildCompute, 1024)
	tab := DefaultTable()
	e1 := VGIW(rv, tab)
	slower := *rv
	slower.Cycles *= 2
	e2 := VGIW(&slower, tab)
	if e2.SystemLevel() <= e1.SystemLevel() {
		t.Error("doubling cycles must increase energy (static power)")
	}
}

func TestSGMFEnergyComputes(t *testing.T) {
	spec, ok := kernels.ByName("nn.euclid")
	if !ok {
		t.Fatal("nn.euclid missing")
	}
	inst, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sgmf.NewMachine(sgmf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(inst.Kernel, inst.Launch, inst.Global)
	if err != nil {
		t.Fatal(err)
	}
	b := SGMF(res, DefaultTable())
	if b.CoreLevel() <= 0 || b.SystemLevel() <= b.DieLevel() {
		t.Errorf("SGMF breakdown malformed: %+v", b)
	}
	// SGMF pays configuration exactly once and has no LVC/CVT energy; its
	// core energy must be below a VGIW run of the same kernel plus those
	// structures... at minimum it must be in the same order of magnitude.
	if b.CoreLevel() > 100*b.DRAM && b.DRAM > 0 {
		t.Errorf("core/DRAM balance implausible: %+v", b)
	}
}

func TestBreakdownComponentsNonNegative(t *testing.T) {
	rv, rs := runBoth(t, buildCompute, 512)
	tab := DefaultTable()
	for _, b := range []Breakdown{VGIW(rv, tab), SIMT(rs, tab)} {
		for name, v := range map[string]float64{
			"core": b.Core, "l1": b.L1, "l2": b.L2, "mc": b.MC, "dram": b.DRAM,
		} {
			if v < 0 {
				t.Errorf("%s energy negative: %f", name, v)
			}
		}
		if got := b.SystemLevel(); got != b.Core+b.L1+b.L2+b.MC+b.DRAM {
			t.Errorf("system level %f != component sum", got)
		}
	}
}

func TestEnergyScalesWithWork(t *testing.T) {
	small, _ := runBoth(t, buildCompute, 512)
	large, _ := runBoth(t, buildCompute, 2048)
	tab := DefaultTable()
	if VGIW(large, tab).SystemLevel() <= VGIW(small, tab).SystemLevel() {
		t.Error("4x work did not increase energy")
	}
}
