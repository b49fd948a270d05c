package engine

import (
	"context"
	"reflect"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
)

// buildSaxpyBlock is a one-block saxpy without a guard (always in range).
func buildSaxpyBlock(t testing.TB) *kir.Kernel {
	t.Helper()
	b := kir.NewBuilder("saxpy1b")
	b.SetParams(3) // a, xBase, yBase
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	tid := b.Tid()
	a := b.Param(0)
	x := b.Load(b.Add(b.Param(1), tid), 0)
	y := b.Load(b.Add(b.Param(2), tid), 0)
	b.Store(b.Add(b.Param(2), tid), 0, b.FAdd(b.FMul(a, x), y))
	b.Ret()
	return b.MustBuild()
}

func testGrid(t testing.TB) *fabric.Grid {
	t.Helper()
	g, err := fabric.NewGrid(fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runBlockVector compiles the (single-block) kernel, places it with the given
// replica count (0 = max), and streams all launch threads through it.
func runBlockVector(t testing.TB, k *kir.Kernel, launch kir.Launch, global []uint32, replicas int, opt Options) (Stats, []uint32) {
	t.Helper()
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.DFGs) != 1 {
		t.Fatalf("kernel has %d blocks, want 1", len(ck.DFGs))
	}
	grid := testGrid(t)
	var p *fabric.Placement
	if replicas == 0 {
		p, err = fabric.PlaceMax(grid, ck.DFGs[0])
	} else {
		p, err = fabric.Place(grid, ck.DFGs[0], replicas)
	}
	if err != nil {
		t.Fatal(err)
	}
	sys := mem.NewSystem(mem.DefaultConfig(mem.WriteBack))
	env, err := NewDataEnv(k, launch, global, sys)
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]int, launch.Threads())
	for i := range threads {
		threads[i] = i
	}
	e := New(grid, opt)
	st, err := e.RunVectorCtx(context.Background(), p, threads, 0, env.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	return st, global
}

func TestEngineSaxpyFunctional(t *testing.T) {
	k := buildSaxpyBlock(t)
	const n = 256
	global := make([]uint32, 2*n)
	want := make([]uint32, 2*n)
	for i := 0; i < n; i++ {
		global[i] = kir.F32(float32(i))
		global[n+i] = kir.F32(1.0)
		want[i] = global[i]
		want[n+i] = kir.F32(0.5*float32(i) + 1.0)
	}
	launch := kir.Launch1D(n/32, 32, kir.F32(0.5), 0, n)
	st, got := runBlockVector(t, k, launch, global, 0, Options{})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mem[%d] = %x, want %x", i, got[i], want[i])
		}
	}
	if st.Cycles() <= 0 {
		t.Error("no cycles elapsed")
	}
	if st.GlobalAccesses != 3*n {
		t.Errorf("global accesses = %d, want %d", st.GlobalAccesses, 3*n)
	}
	if st.Ops[kir.ClassCVU] != 2*n {
		t.Errorf("CVU ops = %d, want %d (init+term per injected thread)", st.Ops[kir.ClassCVU], 2*n)
	}
}

func TestEngineMatchesInterp(t *testing.T) {
	k := buildSaxpyBlock(t)
	const n = 128
	mkMem := func() []uint32 {
		m := make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			m[i] = kir.F32(float32(i) * 0.25)
			m[n+i] = kir.F32(float32(n - i))
		}
		return m
	}
	launch := kir.Launch1D(n/32, 32, kir.F32(1.5), 0, n)

	ref := mkMem()
	// Compile mutates block order; run the interpreter on a fresh build.
	in := &kir.Interp{Kernel: buildSaxpyBlock(t), Launch: launch, Global: ref}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	_, got := runBlockVector(t, k, launch, mkMem(), 0, Options{})
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: engine %x, interp %x", i, got[i], ref[i])
		}
	}
}

func TestEngineReplicationSpeedsUp(t *testing.T) {
	const n = 1024
	launch := kir.Launch1D(n/32, 32, kir.F32(2), 0, n)
	mk := func() []uint32 {
		m := make([]uint32, 2*n)
		for i := range m {
			m[i] = kir.F32(1)
		}
		return m
	}
	st1, _ := runBlockVector(t, buildSaxpyBlock(t), launch, mk(), 1, Options{})
	stN, _ := runBlockVector(t, buildSaxpyBlock(t), launch, mk(), 0, Options{})
	if stN.Cycles() >= st1.Cycles() {
		t.Errorf("replication did not speed up: 1 replica %d cycles, max replicas %d cycles",
			st1.Cycles(), stN.Cycles())
	}
}

func TestEngineInOrderSlowerOrEqual(t *testing.T) {
	const n = 512
	launch := kir.Launch1D(n/32, 32, kir.F32(2), 0, n)
	mk := func() []uint32 {
		m := make([]uint32, 2*n)
		for i := range m {
			m[i] = kir.F32(1)
		}
		return m
	}
	ooo, _ := runBlockVector(t, buildSaxpyBlock(t), launch, mk(), 2, Options{})
	ino, _ := runBlockVector(t, buildSaxpyBlock(t), launch, mk(), 2, Options{InOrderThreads: true})
	if ino.Cycles() < ooo.Cycles() {
		t.Errorf("in-order (%d cycles) beat out-of-order (%d cycles)", ino.Cycles(), ooo.Cycles())
	}
}

func TestEngineOutOfBounds(t *testing.T) {
	k := buildSaxpyBlock(t)
	launch := kir.Launch1D(1, 32, kir.F32(1), 0, 1<<20)
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	p, err := fabric.PlaceMax(grid, ck.DFGs[0])
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewDataEnv(k, launch, make([]uint32, 64), mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
	if err != nil {
		t.Fatal(err)
	}
	e := New(grid, Options{})
	if _, err := e.RunVectorCtx(context.Background(), p, []int{0}, 0, env.Hooks()); err == nil {
		t.Error("want out-of-bounds error")
	}
}

// TestEngineSGMFDiamondFunctional checks that an if-converted divergent
// kernel produces the same memory state as the reference interpreter.
func TestEngineSGMFDiamondFunctional(t *testing.T) {
	build := func() *kir.Kernel {
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

	const n = 64
	mkMem := func() []uint32 {
		m := make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			m[i] = uint32(i * 7 % 250) // mixes all three paths
		}
		return m
	}
	launch := kir.Launch1D(2, 32, 0, n)

	ref := mkMem()
	in := &kir.Interp{Kernel: build(), Launch: launch, Global: ref}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}

	k := build()
	flat, err := compile.IfConvert(k)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	p, err := fabric.PlaceMax(grid, flat)
	if err != nil {
		t.Fatal(err)
	}
	global := mkMem()
	env, err := NewDataEnv(k, launch, global, mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	e := New(grid, Options{})
	st, err := e.RunVectorCtx(context.Background(), p, threads, 0, env.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if global[i] != ref[i] {
			t.Fatalf("mem[%d]: SGMF %d, interp %d", i, global[i], ref[i])
		}
	}
	if st.SkippedMemOps == 0 {
		t.Error("divergent SGMF run skipped no memory ops; predication inactive")
	}
}

func TestEngineVCBackpressure(t *testing.T) {
	// With a token-buffer depth of 1, threads serialize: each thread must
	// finish before the next is injected; total time ~ n * threadLatency.
	cfg := fabric.DefaultConfig()
	cfg.TokenBufDepth = 1
	gridNarrow, err := fabric.NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gridWide := testGrid(t)

	run := func(grid *fabric.Grid) int64 {
		k := buildSaxpyBlock(t)
		ck, err := compile.Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fabric.Place(grid, ck.DFGs[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 128
		global := make([]uint32, 2*n)
		launch := kir.Launch1D(n/32, 32, kir.F32(1), 0, n)
		env, err := NewDataEnv(k, launch, global, mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
		if err != nil {
			t.Fatal(err)
		}
		threads := make([]int, n)
		for i := range threads {
			threads[i] = i
		}
		st, err := New(grid, Options{}).RunVectorCtx(context.Background(), p, threads, 0, env.Hooks())
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles()
	}
	narrow := run(gridNarrow)
	wide := run(gridWide)
	if narrow <= wide {
		t.Errorf("VC depth 1 (%d cycles) should be slower than depth 16 (%d cycles)", narrow, wide)
	}
}

func TestOpLatencyTable(t *testing.T) {
	if OpLatency(kir.OpAdd) != 1 {
		t.Error("integer add latency should be 1")
	}
	if OpLatency(kir.OpFDiv) <= OpLatency(kir.OpFMul) {
		t.Error("fdiv should be slower than fmul")
	}
	if OpLatency(kir.OpFExp) <= OpLatency(kir.OpFAdd) {
		t.Error("fexp should be slower than fadd")
	}
}

// TestEngineStatsConsistency: per-class op counts must equal nodes-of-class
// times threads, and every thread contributes its token traffic.
func TestEngineStatsConsistency(t *testing.T) {
	k := buildSaxpyBlock(t)
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	p, err := fabric.PlaceMax(grid, ck.DFGs[0])
	if err != nil {
		t.Fatal(err)
	}
	const n = 192
	launch := kir.Launch1D(n/32, 32, kir.F32(1), 0, n)
	env, err := NewDataEnv(k, launch, make([]uint32, 2*n), mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	st, err := New(grid, Options{}).RunVectorCtx(context.Background(), p, threads, 0, env.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	counts := ck.DFGs[0].ClassCounts()
	for cl, c := range counts {
		if got := st.Ops[cl]; got != uint64(c)*n {
			t.Errorf("%v ops = %d, want %d", cl, got, uint64(c)*n)
		}
	}
	edges := 0
	for _, nd := range ck.DFGs[0].Nodes {
		edges += len(nd.In) + len(nd.CtlIn)
	}
	if st.TokenTransfers != uint64(edges)*n {
		t.Errorf("token transfers = %d, want %d", st.TokenTransfers, uint64(edges)*n)
	}
	if st.TokenHops < st.TokenTransfers {
		t.Error("hops must be >= transfers (min 1 hop each)")
	}
}

// TestEngineEmptyVector: zero threads is a no-op.
func TestEngineEmptyVector(t *testing.T) {
	k := buildSaxpyBlock(t)
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	p, err := fabric.PlaceMax(grid, ck.DFGs[0])
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewDataEnv(k, kir.Launch1D(1, 32, kir.F32(1), 0, 32), make([]uint32, 64), mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(grid, Options{}).RunVectorCtx(context.Background(), p, nil, 500, env.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, Stats{StartCycle: 500, EndCycle: 500}) {
		t.Errorf("empty vector ran: %+v", st)
	}
}

// TestEnginePredicatedStoreSuppressed: an SGMF-style predicated store with a
// false predicate must neither write memory nor count as a global access.
func TestEnginePredicatedStoreSuppressed(t *testing.T) {
	// if (tid & 1) out[tid] = 7  — if-converted, odd threads store.
	b := kir.NewBuilder("pred")
	b.SetParams(1)
	entry := b.NewBlock("entry")
	store := b.NewBlock("store")
	exit := b.NewBlock("exit")
	b.SetBlock(entry)
	odd := b.SetEQ(b.And(b.Tid(), b.Const(1)), b.Const(1))
	b.Branch(odd, store, exit)
	b.SetBlock(store)
	b.Store(b.Add(b.Param(0), b.Tid()), 0, b.Const(7))
	b.Jump(exit)
	b.SetBlock(exit)
	b.Ret()
	k := b.MustBuild()
	if _, err := compile.ScheduleBlocks(k); err != nil {
		t.Fatal(err)
	}
	flat, err := compile.IfConvert(k)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	p, err := fabric.Place(grid, flat, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	global := make([]uint32, n)
	env, err := NewDataEnv(k, kir.Launch1D(2, 32, 0), global, mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	st, err := New(grid, Options{}).RunVectorCtx(context.Background(), p, threads, 0, env.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := uint32(0)
		if i%2 == 1 {
			want = 7
		}
		if global[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, global[i], want)
		}
	}
	if st.SkippedMemOps != n/2 {
		t.Errorf("skipped = %d, want %d", st.SkippedMemOps, n/2)
	}
	if st.GlobalAccesses != n/2 {
		t.Errorf("global accesses = %d, want %d (suppressed stores must not count)",
			st.GlobalAccesses, n/2)
	}
}

// TestEngineSCUPipelinedBehindMisses pins the SCU's timing rule: a
// special compute unit takes a new operation every cycle (§3.5), so a
// divide waiting on a cache miss does not hold back the divides of later
// threads whose loads hit. One replica runs out[tid] = in[(tid&31)*32] / 3
// for 1,024 threads: threads 0-31 miss 32 distinct 128-byte lines, and every
// later thread hits one of them, so its FDiv is ready long before the
// missing threads' are. Scalar and batched executors must agree exactly.
func TestEngineSCUPipelinedBehindMisses(t *testing.T) {
	const n, lineWords = 1024, 32
	build := func() *kir.Kernel {
		b := kir.NewBuilder("fdivmiss")
		b.SetParams(2) // in, out
		b.SetBlock(b.NewBlock("entry"))
		tid := b.Tid()
		x := b.Load(b.Add(b.Param(0), b.MulI(b.And(tid, b.Const(31)), lineWords)), 0)
		b.Store(b.Add(b.Param(1), tid), 0, b.FDiv(x, b.ConstF(3)))
		b.Ret()
		return b.MustBuild()
	}
	mk := func() []uint32 {
		m := make([]uint32, 32*lineWords+n)
		for i := 0; i < 32; i++ {
			m[i*lineWords] = kir.F32(float32(3 * i))
		}
		return m
	}
	launch := kir.Launch1D(n/32, 32, 0, 32*lineWords)
	sSt, sMem := runBlockVector(t, build(), launch, mk(), 1, Options{Scalar: true})
	bSt, bMem := runBlockVector(t, build(), launch, mk(), 1, Options{})
	if !reflect.DeepEqual(bSt, sSt) {
		t.Errorf("batched Stats differ from scalar:\nscalar:  %+v\nbatched: %+v", sSt, bSt)
	}
	if !reflect.DeepEqual(bMem, sMem) {
		t.Error("batched global memory differs from scalar")
	}
	for tid := 0; tid < n; tid++ {
		if got, want := sMem[32*lineWords+tid], kir.F32(float32(tid&31)); got != want {
			t.Fatalf("out[%d] = %x, want %x", tid, got, want)
		}
	}
	// Every hit's divide issues as soon as its load returns. Counting each
	// divide still waiting on a miss as holding an SCU instance would queue
	// the hits behind the misses and read more cycles.
	if got, want := sSt.Cycles(), int64(1185); got != want {
		t.Errorf("cycles = %d, want %d", got, want)
	}
}
