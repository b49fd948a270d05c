package sgmf

import (
	"strings"
	"testing"

	"vgiw/internal/kir"
)

// checkedConfig is the default machine with the verifier on: every mapping
// pass and placement in the tests is checked.
func checkedConfig() Config {
	cfg := DefaultConfig()
	cfg.Checked = true
	return cfg
}

func buildDiamond() *kir.Kernel {
	b := kir.NewBuilder("fig1a")
	b.SetParams(2)
	bb1 := b.NewBlock("bb1")
	bb2 := b.NewBlock("bb2")
	bb3 := b.NewBlock("bb3")
	bb4 := b.NewBlock("bb4")
	bb5 := b.NewBlock("bb5")
	bb6 := b.NewBlock("bb6")
	b.SetBlock(bb1)
	tid := b.Tid()
	v := b.Load(b.Add(b.Param(0), tid), 0)
	b.Branch(b.SetLT(v, b.Const(10)), bb2, bb3)
	b.SetBlock(bb2)
	b.Store(b.Add(b.Param(1), tid), 0, b.MulI(v, 2))
	b.Jump(bb6)
	b.SetBlock(bb3)
	b.Branch(b.SetLT(v, b.Const(100)), bb4, bb5)
	b.SetBlock(bb4)
	b.Store(b.Add(b.Param(1), tid), 0, b.AddI(v, 7))
	b.Jump(bb6)
	b.SetBlock(bb5)
	b.Store(b.Add(b.Param(1), tid), 0, b.Sub(v, tid))
	b.Jump(bb6)
	b.SetBlock(bb6)
	b.Ret()
	return b.MustBuild()
}

func TestSGMFDiamondMatchesReference(t *testing.T) {
	const n = 256
	mk := func() []uint32 {
		m := make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			m[i] = uint32(i * 7 % 250)
		}
		return m
	}
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := mk()
	in := &kir.Interp{Kernel: buildDiamond(), Launch: launch, Global: ref}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(checkedConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := mk()
	res, err := m.Run(buildDiamond(), launch, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: sgmf %d, ref %d", i, got[i], ref[i])
		}
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	// Divergence waste: with 3 exclusive store paths, 2/3 of the predicated
	// stores are skipped — the units are occupied but idle (Figure 1c).
	if res.SkippedMemOps == 0 {
		t.Error("no skipped memory ops under divergence")
	}
	if res.Replicas < 1 {
		t.Error("no replicas placed")
	}
	if res.GraphNodes == 0 {
		t.Error("empty graph")
	}
}

// TestSGMFRejectsLoops: SGMF maps no kernel with a back edge, whether its
// trip count is data-dependent or a compile-time constant.
func TestSGMFRejectsLoops(t *testing.T) {
	dataDependent := func() *kir.Kernel {
		b := kir.NewBuilder("loopy")
		entry := b.NewBlock("entry")
		loop := b.NewBlock("loop")
		exit := b.NewBlock("exit")
		b.SetBlock(entry)
		i := b.Const(0)
		b.Jump(loop)
		b.SetBlock(loop)
		i1 := b.AddI(i, 1)
		b.MovTo(i, i1)
		b.Branch(b.SetLT(i1, b.Tid()), loop, exit)
		b.SetBlock(exit)
		b.Ret()
		return b.MustBuild()
	}
	constantTrip := func() *kir.Kernel {
		b := kir.NewBuilder("trip3")
		b.SetParams(1)
		entry := b.NewBlock("entry")
		loop := b.NewBlock("loop")
		exit := b.NewBlock("exit")
		b.SetBlock(entry)
		tid := b.Tid()
		i := b.Const(0)
		acc := b.Const(0)
		b.Jump(loop)
		b.SetBlock(loop)
		a1 := b.Add(acc, i)
		b.MovTo(acc, a1)
		i1 := b.AddI(i, 1)
		b.MovTo(i, i1)
		b.Branch(b.SetLT(i1, b.Const(3)), loop, exit)
		b.SetBlock(exit)
		b.Store(b.Add(b.Param(0), tid), 0, acc)
		b.Ret()
		return b.MustBuild()
	}

	m, err := NewMachine(checkedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() *kir.Kernel{dataDependent, constantTrip} {
		k := build()
		if _, err := m.Map(k); err == nil || !strings.Contains(err.Error(), "has loops") {
			t.Errorf("%s: Map error = %v, want a \"has loops\" rejection", k.Name, err)
		}
	}
}

func TestSGMFRejectsOversizedKernels(t *testing.T) {
	// More ALU work than the fabric has ALUs (32): 40 chained multiplies.
	b := kir.NewBuilder("huge")
	b.SetParams(1)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	v := b.Param(0)
	acc := b.Tid()
	for i := 0; i < 40; i++ {
		acc = b.Mul(acc, acc)
	}
	b.Store(v, 0, acc)
	b.Ret()
	k := b.MustBuild()

	m, err := NewMachine(checkedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map(k); err == nil {
		t.Error("oversized kernel should not fit the SGMF fabric")
	}
}

func TestSGMFSingleConfiguration(t *testing.T) {
	// SGMF pays the configuration cost exactly once, regardless of thread
	// count: doubling threads should add ~threads/replicas cycles, not
	// another configuration.
	m, err := NewMachine(checkedConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) int64 {
		launch := kir.Launch1D(n/32, 32, 0, uint32(n))
		global := make([]uint32, 2*n)
		res, err := m.Run(buildDiamond(), launch, global)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	// Compare sizes in the same cache-banking regime (both large enough
	// that load and store streams share L1 banks) so the only difference
	// is amortization of the one-time configuration.
	small := run(1024)
	large := run(4096)
	if large <= small {
		t.Error("more threads should take longer")
	}
	perThreadSmall := float64(small) / 1024
	perThreadLarge := float64(large) / 4096
	if perThreadLarge > perThreadSmall*1.01 {
		t.Errorf("per-thread cost grew with thread count: %.2f -> %.2f (configuration not amortized?)",
			perThreadSmall, perThreadLarge)
	}
}

// TestSGMFReplicationThroughput: a tiny kernel replicates several times and
// should outrun a single-replica fabric configuration of the same graph.
func TestSGMFReplicationThroughput(t *testing.T) {
	build := func() *kir.Kernel {
		b := kir.NewBuilder("tiny")
		b.SetParams(1)
		blk := b.NewBlock("entry")
		b.SetBlock(blk)
		addr := b.Add(b.Param(0), b.Tid())
		b.Store(addr, 0, b.Add(b.Load(addr, 0), b.Tid()))
		b.Ret()
		return b.MustBuild()
	}
	const n = 2048
	launch := kir.Launch1D(n/32, 32, 0)

	m, err := NewMachine(checkedConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(build(), launch, make([]uint32, n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas < 2 {
		t.Fatalf("tiny kernel placed only %d replicas", res.Replicas)
	}

	cfgOne := checkedConfig()
	cfgOne.Fabric.MaxReplicas = 1
	mOne, err := NewMachine(cfgOne)
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := mOne.Run(build(), launch, make([]uint32, n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles >= resOne.Cycles {
		t.Errorf("replicated run (%d cycles) not faster than single replica (%d)",
			res.Cycles, resOne.Cycles)
	}
}

// TestSGMFParamMismatch surfaces launch errors.
func TestSGMFParamMismatch(t *testing.T) {
	m, err := NewMachine(checkedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(buildDiamond(), kir.Launch1D(1, 32), make([]uint32, 64)); err == nil {
		t.Error("want error for missing params")
	}
}
