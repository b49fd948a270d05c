package simt

import (
	"context"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/kir"
)

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
	r := b.Mov(b.MulI(v, 2))
	b.Jump(bb6)
	b.SetBlock(bb3)
	b.Branch(b.SetLT(v, b.Const(100)), bb4, bb5)
	b.SetBlock(bb4)
	b.MovTo(r, b.AddI(v, 7))
	b.Jump(bb6)
	b.SetBlock(bb5)
	b.MovTo(r, b.Sub(v, tid))
	b.Jump(bb6)
	b.SetBlock(bb6)
	b.Store(b.Add(b.Param(1), tid), 0, r)
	b.Ret()
	return b.MustBuild()
}

func buildLoopSum() *kir.Kernel {
	b := kir.NewBuilder("loopsum")
	b.SetParams(1)
	entry := b.NewBlock("entry")
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Const(0)
	sum := b.Const(0)
	b.Jump(loop)
	b.SetBlock(loop)
	sum1 := b.Add(sum, i)
	i1 := b.AddI(i, 1)
	b.MovTo(sum, sum1)
	b.MovTo(i, i1)
	b.Branch(b.SetLE(i1, b.Rem(tid, b.Const(17))), loop, exit)
	b.SetBlock(exit)
	b.Store(b.Add(b.Param(0), tid), 0, sum)
	b.Ret()
	return b.MustBuild()
}

func buildBarrierReverse() *kir.Kernel {
	b := kir.NewBuilder("reverse")
	b.SetParams(1)
	b.SetShared(32)
	entry := b.NewBlock("entry")
	after := b.NewBlock("after")
	b.SetBlock(entry)
	tidx := b.TidX()
	b.StoreSh(tidx, 0, b.Tid())
	b.Jump(after)
	b.MarkBarrier(after)
	b.SetBlock(after)
	rev := b.Sub(b.Const(31), b.TidX())
	v := b.LoadSh(rev, 0)
	b.Store(b.Add(b.Param(0), b.Tid()), 0, v)
	b.Ret()
	return b.MustBuild()
}

func runSIMT(t testing.TB, build func() *kir.Kernel, launch kir.Launch, global []uint32) (*Result, []uint32) {
	t.Helper()
	ck, err := compile.Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewMachine(DefaultConfig()).RunCtx(context.Background(), ck, launch, global)
	if err != nil {
		t.Fatal(err)
	}
	return res, global
}

func reference(t testing.TB, build func() *kir.Kernel, launch kir.Launch, global []uint32) []uint32 {
	t.Helper()
	in := &kir.Interp{Kernel: build(), Launch: launch, Global: global}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	return global
}

func diamondInput(n int) []uint32 {
	m := make([]uint32, 2*n)
	for i := 0; i < n; i++ {
		m[i] = uint32(i * 7 % 250)
	}
	return m
}

func TestSIMTDiamondMatchesReference(t *testing.T) {
	const n = 256
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := reference(t, buildDiamond, launch, diamondInput(n))
	res, got := runSIMT(t, buildDiamond, launch, diamondInput(n))
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	if res.Divergences == 0 {
		t.Error("divergent kernel reported no divergences")
	}
	if res.MaskedLanes == 0 {
		t.Error("divergent kernel reported no masked lanes (the Fig. 1b waste)")
	}
	if res.RFReads == 0 || res.RFWrites == 0 {
		t.Error("no register file traffic")
	}
	if res.WarpInstrs == 0 || res.ThreadInstrs == 0 {
		t.Error("no instructions issued")
	}
	if res.ThreadInstrs > res.WarpInstrs*32 {
		t.Error("more thread-instructions than lanes allow")
	}
}

func TestSIMTLoopMatchesReference(t *testing.T) {
	const n = 160
	launch := kir.Launch1D(n/32, 32, 0)
	ref := reference(t, buildLoopSum, launch, make([]uint32, n))
	res, got := runSIMT(t, buildLoopSum, launch, make([]uint32, n))
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
	// Data-dependent trip counts diverge inside warps.
	if res.Divergences == 0 {
		t.Error("variable-trip loop reported no divergence")
	}
}

func TestSIMTBarrierMatchesReference(t *testing.T) {
	const n = 128
	launch := kir.Launch1D(n/32, 32, 0)
	ref := reference(t, buildBarrierReverse, launch, make([]uint32, n))
	res, got := runSIMT(t, buildBarrierReverse, launch, make([]uint32, n))
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
	if res.Barriers == 0 {
		t.Error("barrier kernel recorded no barrier waits")
	}
	if res.ShTrans == 0 {
		t.Error("no shared-memory transactions")
	}
}

func TestSIMTCoalescing(t *testing.T) {
	// Unit-stride: each warp's 32 loads hit one 128B line => 1 transaction
	// per warp access. Stride-32: 32 distinct lines per warp access.
	build := func(stride int32) func() *kir.Kernel {
		return func() *kir.Kernel {
			b := kir.NewBuilder("stride")
			b.SetParams(1)
			blk := b.NewBlock("entry")
			b.SetBlock(blk)
			addr := b.Add(b.Param(0), b.MulI(b.Tid(), stride))
			v := b.Load(addr, 0)
			b.Store(addr, 0, b.Add(v, v))
			b.Ret()
			return b.MustBuild()
		}
	}
	const n = 128
	launch := kir.Launch1D(n/32, 32, 0)
	unit, _ := runSIMT(t, build(1), launch, make([]uint32, n))
	strided, _ := runSIMT(t, build(32), launch, make([]uint32, n*32))
	if unit.L1Trans*16 > strided.L1Trans {
		t.Errorf("coalescing broken: unit-stride %d transactions, strided %d",
			unit.L1Trans, strided.L1Trans)
	}
	if strided.Cycles <= unit.Cycles {
		t.Error("strided access should be slower than unit-stride")
	}
}

func TestSIMTManyCTAs(t *testing.T) {
	// More CTAs than can be resident: admission must rotate through all.
	const n = 32 * 40 // 40 CTAs of one warp each
	launch := kir.Launch1D(40, 32, 0, n)
	ref := reference(t, buildDiamond, launch, diamondInput(n))
	_, got := runSIMT(t, buildDiamond, launch, diamondInput(n))
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
}

func TestSIMTPartialWarp(t *testing.T) {
	// CTA size 20: the last 12 lanes of the warp never activate.
	launch := kir.Launch1D(2, 20, 0, 40)
	ref := reference(t, buildDiamond, launch, diamondInput(40))
	_, got := runSIMT(t, buildDiamond, launch, diamondInput(40))
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
}

func TestSIMTOutOfBounds(t *testing.T) {
	build := func() *kir.Kernel {
		b := kir.NewBuilder("oob")
		b.SetParams(0)
		blk := b.NewBlock("entry")
		b.SetBlock(blk)
		b.Store(b.Const(1<<20), 0, b.Tid())
		b.Ret()
		return b.MustBuild()
	}
	ck, err := compile.Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(DefaultConfig()).RunCtx(context.Background(), ck, kir.Launch1D(1, 32), make([]uint32, 8)); err == nil {
		t.Error("want out-of-bounds error")
	}
}

func TestSIMTUniformFasterThanDivergent(t *testing.T) {
	// A kernel where all threads take the same path vs. one where lanes
	// alternate: divergence must cost cycles (Figure 1b).
	build := func() *kir.Kernel {
		b := kir.NewBuilder("cond")
		b.SetParams(2)
		entry := b.NewBlock("entry")
		then := b.NewBlock("then")
		els := b.NewBlock("else")
		exit := b.NewBlock("exit")
		b.SetBlock(entry)
		tid := b.Tid()
		v := b.Load(b.Add(b.Param(0), tid), 0)
		b.Branch(b.SetNE(v, b.Const(0)), then, els)
		b.SetBlock(then)
		acc := b.Mov(tid)
		for i := 0; i < 10; i++ {
			acc = b.Mul(acc, acc)
		}
		r := b.Mov(acc)
		b.Jump(exit)
		b.SetBlock(els)
		acc2 := b.AddI(tid, 1)
		for i := 0; i < 10; i++ {
			acc2 = b.Mul(acc2, acc2)
		}
		b.MovTo(r, acc2)
		b.Jump(exit)
		b.SetBlock(exit)
		b.Store(b.Add(b.Param(1), tid), 0, r)
		b.Ret()
		return b.MustBuild()
	}
	const n = 512
	uniformIn := make([]uint32, 2*n) // all zero: everyone takes else
	alternate := make([]uint32, 2*n)
	for i := 0; i < n; i++ {
		alternate[i] = uint32(i % 2)
	}
	launch := kir.Launch1D(n/32, 32, 0, n)
	uni, _ := runSIMT(t, build, launch, uniformIn)
	div, _ := runSIMT(t, build, launch, alternate)
	if div.Cycles <= uni.Cycles {
		t.Errorf("divergent run (%d cycles) not slower than uniform (%d cycles)",
			div.Cycles, uni.Cycles)
	}
	if div.MaskedLanes <= uni.MaskedLanes {
		t.Error("divergent run should mask more lanes")
	}
}

// TestSIMTNestedDivergence exercises the reconvergence stack with two
// nesting levels where the inner reconvergence point coincides with the
// outer one, plus a divergent early return.
func TestSIMTNestedDivergence(t *testing.T) {
	build := func() *kir.Kernel {
		b := kir.NewBuilder("nested")
		b.SetParams(2)
		entry := b.NewBlock("entry")
		outerT := b.NewBlock("outer_then")
		innerT := b.NewBlock("inner_then")
		innerE := b.NewBlock("inner_else")
		merge := b.NewBlock("merge")
		early := b.NewBlock("early")
		b.SetBlock(entry)
		tid := b.Tid()
		v := b.Load(b.Add(b.Param(0), tid), 0)
		r := b.Mov(b.Const(0))
		b.Branch(b.SetLT(v, b.Const(64)), outerT, merge)
		b.SetBlock(outerT)
		// Inner divergence reconverging at the same merge block.
		b.Branch(b.SetLT(v, b.Const(16)), innerT, innerE)
		b.SetBlock(innerT)
		b.MovTo(r, b.MulI(v, 3))
		// Divergent early return for a subset of lanes.
		b.Branch(b.SetEQ(b.And(v, b.Const(1)), b.Const(1)), early, merge)
		b.SetBlock(early)
		b.Store(b.Add(b.Param(1), tid), 0, b.Const(999))
		b.Ret()
		b.SetBlock(innerE)
		b.MovTo(r, b.AddI(v, 100))
		b.Jump(merge)
		b.SetBlock(merge)
		b.Store(b.Add(b.Param(1), b.Tid()), 0, r)
		b.Ret()
		return b.MustBuild()
	}
	const n = 256
	mk := func() []uint32 {
		m := make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			m[i] = uint32(i % 97)
		}
		return m
	}
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := reference(t, build, launch, mk())
	res, got := runSIMT(t, build, launch, mk())
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
	if res.Divergences < 2 {
		t.Errorf("nested kernel produced only %d divergences", res.Divergences)
	}
}

// TestSIMTAllLanesReturnEarly: a whole warp retiring via a divergent path.
func TestSIMTWholeWarpEarlyReturn(t *testing.T) {
	build := func() *kir.Kernel {
		b := kir.NewBuilder("early")
		b.SetParams(1)
		entry := b.NewBlock("entry")
		ret1 := b.NewBlock("ret1")
		rest := b.NewBlock("rest")
		b.SetBlock(entry)
		tid := b.Tid()
		// Warp 0 (tid < 32) returns early as a unit.
		b.Branch(b.SetLT(tid, b.Const(32)), ret1, rest)
		b.SetBlock(ret1)
		b.Store(b.Add(b.Param(0), tid), 0, b.Const(1))
		b.Ret()
		b.SetBlock(rest)
		b.Store(b.Add(b.Param(0), tid), 0, b.Const(2))
		b.Ret()
		return b.MustBuild()
	}
	const n = 128
	launch := kir.Launch1D(n/32, 32, 0)
	ref := reference(t, build, launch, make([]uint32, n))
	_, got := runSIMT(t, build, launch, make([]uint32, n))
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
}

// TestSIMTSchedulerPolicies: both policies must be functionally identical;
// their cycle counts may differ.
func TestSIMTSchedulerPolicies(t *testing.T) {
	const n = 256
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := reference(t, buildDiamond, launch, diamondInput(n))

	for _, pol := range []SchedPolicy{SchedLRR, SchedGTO} {
		cfg := DefaultConfig()
		cfg.Scheduler = pol
		ck, err := compile.Compile(buildDiamond())
		if err != nil {
			t.Fatal(err)
		}
		got := diamondInput(n)
		res, err := NewMachine(cfg).RunCtx(context.Background(), ck, launch, got)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%v: mem[%d] mismatch", pol, i)
			}
		}
		if res.Cycles <= 0 {
			t.Fatalf("%v: no cycles", pol)
		}
	}
	if SchedLRR.String() != "lrr" || SchedGTO.String() != "gto" {
		t.Error("policy names wrong")
	}
}

// TestSIMTUnwrittenRegisterReadsZero: a lane that reads a register no
// instruction of its thread wrote sees zero, as in the reference
// interpreter, even when its warp's register slab was recycled from a
// retired warp that wrote that register.
func TestSIMTUnwrittenRegisterReadsZero(t *testing.T) {
	build := func() *kir.Kernel {
		b := kir.NewBuilder("unwritten")
		b.SetParams(2)
		entry := b.NewBlock("entry")
		set := b.NewBlock("set")
		exit := b.NewBlock("exit")
		b.SetBlock(entry)
		tid := b.Tid()
		v := b.Load(b.Add(b.Param(0), tid), 0)
		b.Branch(b.SetLT(v, b.Const(10)), set, exit)
		b.SetBlock(set)
		r := b.AddI(v, 100)
		b.Jump(exit)
		b.SetBlock(exit)
		b.Store(b.Add(b.Param(1), b.Tid()), 0, r)
		b.Ret()
		return b.MustBuild()
	}
	// Early CTAs take the writing path, later ones read r unwritten, and
	// one resident CTA at a time makes every later warp reuse a slab.
	const n = 32 * 8
	input := func() []uint32 {
		m := make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			m[i] = uint32(i / 4) // below 10 only in the first CTA
		}
		return m
	}
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := reference(t, build, launch, input())
	ck, err := compile.Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCTAs = 1
	got := input()
	if _, err := NewMachine(cfg).RunCtx(context.Background(), ck, launch, got); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
}
