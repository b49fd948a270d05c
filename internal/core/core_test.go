package core

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"vgiw/internal/compile"
	"vgiw/internal/kernels"
	"vgiw/internal/kir"
	"vgiw/internal/trace"
)

// buildDiamond is the Figure 1a kernel: three-way divergent paths that
// reconverge, with per-path stores.
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

// buildLoopSum sums 0..tid via a data-dependent loop.
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
	b.Branch(b.SetLE(i1, tid), loop, exit)
	b.SetBlock(exit)
	b.Store(b.Add(b.Param(0), tid), 0, sum)
	b.Ret()
	return b.MustBuild()
}

// runVGIW compiles and runs a kernel on a default machine. Tests always run
// with the verifier on, so every pass and placement here is checked.
func runVGIW(t testing.TB, build func() *kir.Kernel, launch kir.Launch, global []uint32, cfg Config) (*Result, []uint32) {
	t.Helper()
	cfg.Checked = true
	ck, err := compile.Compile(build(), compile.Checked())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(ck, launch, global)
	if err != nil {
		t.Fatal(err)
	}
	return res, global
}

// reference runs the golden interpreter.
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

func TestVGIWDiamondMatchesReference(t *testing.T) {
	const n = 256
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := reference(t, buildDiamond, launch, diamondInput(n))
	res, got := runVGIW(t, buildDiamond, launch, diamondInput(n), DefaultConfig())
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: vgiw %d, ref %d", i, got[i], ref[i])
		}
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	// Control flow coalescing: each of the 6 blocks is scheduled exactly
	// once (single tile), regardless of the 3 distinct control paths.
	if res.Reconfigs != 6 {
		t.Errorf("reconfigs = %d, want 6 (one per block)", res.Reconfigs)
	}
	if len(res.BlockRuns) != 6 {
		t.Errorf("block runs = %d, want 6", len(res.BlockRuns))
	}
	// Divergent blocks ran only their own threads.
	threadsPerBlock := map[int]int{}
	for _, br := range res.BlockRuns {
		threadsPerBlock[br.Block] += br.Threads
	}
	if threadsPerBlock[0] != n {
		t.Errorf("entry ran %d threads, want %d", threadsPerBlock[0], n)
	}
	sumMid := threadsPerBlock[1] + threadsPerBlock[2]
	if sumMid != n && threadsPerBlock[1] >= n {
		t.Errorf("divergent blocks not coalesced: %v", threadsPerBlock)
	}
	if threadsPerBlock[5] != n {
		t.Errorf("merge block ran %d threads, want %d", threadsPerBlock[5], n)
	}
	// Live values flowed through the LVC.
	if res.LVCLoads == 0 || res.LVCStores == 0 {
		t.Errorf("LVC traffic: loads=%d stores=%d, want > 0", res.LVCLoads, res.LVCStores)
	}
	if res.CVTWrites == 0 || res.CVTReads == 0 {
		t.Errorf("CVT traffic: reads=%d writes=%d, want > 0", res.CVTReads, res.CVTWrites)
	}
}

// TestFigure2CoalescedVectors pins the paper's Figure 2 walkthrough: the
// eight threads of Example_divergence, steered onto the Figure 1a kernel's
// three paths by its input, are scheduled in block-ID order, each block
// once, and every block runs exactly the threads pending for it as one
// coalesced vector. Thread IDs are 0-based (the paper numbers from 1).
func TestFigure2CoalescedVectors(t *testing.T) {
	launch := kir.Launch1D(1, 8, 0, 8)
	input := func() []uint32 {
		m := make([]uint32, 16)
		copy(m, []uint32{5, 50, 7, 200, 300, 400, 60, 9})
		return m
	}
	ref := reference(t, buildDiamond, launch, input())
	cfg := DefaultConfig()
	cfg.Engine.Profile = true // records each block run's thread vector
	res, got := runVGIW(t, buildDiamond, launch, input(), cfg)
	if !slices.Equal(got, ref) {
		t.Fatalf("memory = %v, reference %v", got, ref)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	want := []struct {
		block   int
		threads []int
	}{
		{0, all},                  // bb1: every thread
		{1, []int{0, 2, 7}},       // bb2: v < 10
		{2, []int{1, 3, 4, 5, 6}}, // bb3: v >= 10
		{3, []int{1, 6}},          // bb4: 10 <= v < 100
		{4, []int{3, 4, 5}},       // bb5: v >= 100
		{5, all},                  // bb6: the paths reconverge
	}
	if len(res.BlockRuns) != len(want) {
		t.Fatalf("%d block runs, want %d: %+v", len(res.BlockRuns), len(want), res.BlockRuns)
	}
	for i, w := range want {
		br := res.BlockRuns[i]
		if br.Block != w.block || !slices.Equal(br.ThreadIDs, w.threads) {
			t.Errorf("step %d: block %d threads %v, want block %d threads %v",
				i+1, br.Block, br.ThreadIDs, w.block, w.threads)
		}
	}
	if res.Reconfigs != 6 {
		t.Errorf("reconfigs = %d, want 6 (one per block)", res.Reconfigs)
	}
}

func TestVGIWLoopMatchesReference(t *testing.T) {
	const n = 128
	launch := kir.Launch1D(n/32, 32, 0)
	ref := reference(t, buildLoopSum, launch, make([]uint32, n))
	_, got := runVGIW(t, buildLoopSum, launch, make([]uint32, n), DefaultConfig())
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: vgiw %d, ref %d", i, got[i], ref[i])
		}
	}
}

func TestVGIWLoopSchedulesBackEdge(t *testing.T) {
	const n = 64
	launch := kir.Launch1D(2, 32, 0)
	res, _ := runVGIW(t, buildLoopSum, launch, make([]uint32, n), DefaultConfig())
	// The loop block re-executes: more block runs than blocks, and the
	// loop body (block 1) appears multiple times with shrinking vectors.
	loopRuns := 0
	prev := 1 << 30
	shrinks := true
	for _, br := range res.BlockRuns {
		if br.Block == 1 {
			loopRuns++
			if br.Threads > prev {
				shrinks = false
			}
			prev = br.Threads
		}
	}
	if loopRuns < 10 {
		t.Errorf("loop ran %d times, want >= 10 (tid up to 63)", loopRuns)
	}
	if !shrinks {
		t.Error("loop thread vectors should shrink monotonically as threads exit")
	}
}

func TestVGIWBarrierSharedMemory(t *testing.T) {
	build := func() *kir.Kernel {
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
	const n = 128
	launch := kir.Launch1D(n/32, 32, 0)
	ref := reference(t, build, launch, make([]uint32, n))
	_, got := runVGIW(t, build, launch, make([]uint32, n), DefaultConfig())
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: vgiw %d, ref %d", i, got[i], ref[i])
		}
	}
}

func TestVGIWTiling(t *testing.T) {
	// Force tiny tiles: CVT budget of 6 blocks * 32 threads.
	cfg := DefaultConfig()
	cfg.CVTCapacityBits = 6 * 32
	const n = 256
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := reference(t, buildDiamond, launch, diamondInput(n))
	res, got := runVGIW(t, buildDiamond, launch, diamondInput(n), cfg)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: vgiw %d, ref %d", i, got[i], ref[i])
		}
	}
	if res.TileSize != 32 {
		t.Errorf("tile size = %d, want 32", res.TileSize)
	}
	if res.Tiles != n/32 {
		t.Errorf("tiles = %d, want %d", res.Tiles, n/32)
	}
	if res.Reconfigs < uint64(res.Tiles) {
		t.Errorf("reconfigs = %d < tiles = %d", res.Reconfigs, res.Tiles)
	}
}

func TestVGIWReplicationAblation(t *testing.T) {
	const n = 2048
	launch := kir.Launch1D(n/32, 32, 0, n)
	on, _ := runVGIW(t, buildDiamond, launch, diamondInput(n), DefaultConfig())
	cfg := DefaultConfig()
	cfg.ReplicationOff = true
	off, _ := runVGIW(t, buildDiamond, launch, diamondInput(n), cfg)
	if on.Cycles >= off.Cycles {
		t.Errorf("replication should speed up: on=%d off=%d cycles", on.Cycles, off.Cycles)
	}
	for b, r := range on.ReplicasOf {
		if r < 1 {
			t.Errorf("block %d has %d replicas", b, r)
		}
	}
	for _, r := range off.ReplicasOf {
		if r != 1 {
			t.Errorf("ablation used %d replicas", r)
		}
	}
}

func TestVGIWConfigOverheadSmall(t *testing.T) {
	// With large thread vectors, reconfiguration is negligible (§3.2:
	// average 0.18% of runtime).
	const n = 16384
	launch := kir.Launch1D(n/64, 64, 0, n)
	res, _ := runVGIW(t, buildDiamond, launch, diamondInput(n), DefaultConfig())
	// The diamond kernel does ~1 cycle of work per thread per block, which
	// is the worst case for amortizing the 34-cycle reconfiguration; the
	// Rodinia-class kernels in internal/kernels land well under 1%.
	if oh := res.ConfigOverhead(); oh > 0.05 {
		t.Errorf("config overhead %.4f too large for %d threads", oh, n)
	}
}

func TestCVTReadResetAndBatches(t *testing.T) {
	c := NewCVT(3, 130)
	c.Register(1, 0)
	c.Register(1, 64)
	c.Register(1, 129)
	c.Register(2, 5)
	if got := c.NextBlock(); got != 1 {
		t.Fatalf("NextBlock = %d, want 1", got)
	}
	ids := c.Drain(1, nil)
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 64 || ids[2] != 129 {
		t.Fatalf("Drain = %v", ids)
	}
	if c.Pending(1) {
		t.Error("block 1 still pending after read-and-reset")
	}
	if got := c.NextBlock(); got != 2 {
		t.Fatalf("NextBlock = %d, want 2", got)
	}
	if c.Reads != 3 {
		t.Errorf("reads = %d, want 3 (three words touched)", c.Reads)
	}
	if c.Writes != 4 {
		t.Errorf("writes = %d, want 4", c.Writes)
	}
	// One write per registered thread, also for threads sharing a word.
	c.Register(0, 64)
	c.Register(0, 65)
	if c.Writes != 6 {
		t.Errorf("writes = %d, want 6 (one per registered thread)", c.Writes)
	}
	ids = c.Drain(0, nil)
	if len(ids) != 2 || ids[0] != 64 || ids[1] != 65 {
		t.Fatalf("shared-word drain = %v", ids)
	}
}

func TestCVTSetAll(t *testing.T) {
	c := NewCVT(2, 100)
	c.SetAll(0, 100)
	ids := c.Drain(0, nil)
	if len(ids) != 100 {
		t.Fatalf("drained %d ids, want 100", len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("ids[%d] = %d", i, id)
		}
	}
}

// TestCVTDrainReusesBuffer: Drain appends to the caller's buffer, so a
// buffer with room is filled in place and a drain allocates nothing.
func TestCVTDrainReusesBuffer(t *testing.T) {
	c := NewCVT(2, 256)
	buf := make([]int, 0, 256)
	for _, tid := range []int{200, 3, 64} {
		c.Register(1, tid)
	}
	got := c.Drain(1, append(buf, -1))
	if len(got) != 4 || got[0] != -1 || got[1] != 3 || got[2] != 64 || got[3] != 200 || &got[0] != &buf[:1][0] {
		t.Fatalf("Drain into a reused buffer = %v", got)
	}
	if c.Reads != 3 {
		t.Errorf("reads = %d, want 3 (three words touched)", c.Reads)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.SetAll(0, 256)
		buf = c.Drain(0, buf[:0])
	})
	if allocs != 0 || len(buf) != 256 {
		t.Errorf("drain with a reused buffer: %v allocs, %d ids; want 0 allocs, 256 ids", allocs, len(buf))
	}
}

func TestLVCRoundTripAndTiming(t *testing.T) {
	cfgSys := DefaultConfig()
	sys := newTestSystem(cfgSys)
	l := NewLVC(DefaultLVCConfig(), sys, 4, 256)
	_, d1 := l.Access(2, 10, true, 42, 0)
	v, d2 := l.Access(2, 10, false, 0, d1)
	if v != 42 {
		t.Fatalf("read back %d, want 42", v)
	}
	if d2 <= d1 {
		t.Error("read completion should advance time")
	}
	if l.Loads != 1 || l.Stores != 1 {
		t.Errorf("loads=%d stores=%d", l.Loads, l.Stores)
	}
	// Cold write missed; warm read hit the same line.
	st := l.Stats()
	if st.Misses() == 0 {
		t.Error("first access should miss")
	}
	l.Reset()
	v, _ = l.Access(2, 10, false, 0, d2)
	if v != 0 {
		t.Errorf("after reset read %d, want 0", v)
	}
}

// TestLVCLineMapping pins the live-value matrix's word-to-line mapping for
// a power-of-two line (the shift path) and a 96-byte line (the division
// path): the first and last word of a line share it, the next word does not.
func TestLVCLineMapping(t *testing.T) {
	for _, lineBytes := range []int{128, 96} {
		cfg := DefaultLVCConfig()
		cfg.LineBytes = lineBytes
		cfg.SizeBytes = lineBytes * cfg.Ways * 16
		l := NewLVC(cfg, newTestSystem(DefaultConfig()), 1, 256)
		per := lineBytes / 4 // words per line
		now := int64(0)
		for _, w := range []int{0, per - 1, per, 2*per - 1, 2 * per} {
			_, now = l.Access(0, w, false, 0, now)
		}
		if got := l.Stats().Misses(); got != 3 {
			t.Errorf("%dB lines: %d misses over words 0, %d, %d, %d, %d; want 3 (one per line)",
				lineBytes, got, per-1, per, 2*per-1, 2*per)
		}
	}
}

// TestVGIWElidesEmptyBlocks: threads registered to an instruction-less ret
// block retire in the BBS without a fabric pass, and an empty jump block
// forwards without one.
func TestVGIWElidesEmptyBlocks(t *testing.T) {
	build := func() *kir.Kernel {
		b := kir.NewBuilder("elide")
		b.SetParams(1)
		entry := b.NewBlock("entry")
		hop := b.NewBlock("hop") // empty jump block
		body := b.NewBlock("body")
		exit := b.NewBlock("exit") // empty ret block
		b.SetBlock(entry)
		b.Branch(b.SetLT(b.Tid(), b.Const(64)), hop, exit)
		b.SetBlock(hop)
		b.Jump(body)
		b.SetBlock(body)
		b.Store(b.Add(b.Param(0), b.Tid()), 0, b.Tid())
		b.Jump(exit)
		b.SetBlock(exit)
		b.Ret()
		return b.MustBuild()
	}
	const n = 128
	launch := kir.Launch1D(n/32, 32, 0)
	ref := reference(t, build, launch, make([]uint32, n))
	res, got := runVGIW(t, build, launch, make([]uint32, n), DefaultConfig())
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: vgiw %d, ref %d", i, got[i], ref[i])
		}
	}
	// Only entry and body should be scheduled on the fabric.
	for _, br := range res.BlockRuns {
		if br.Threads == 0 {
			t.Errorf("scheduled an empty vector for block %d", br.Block)
		}
	}
	if len(res.BlockRuns) != 2 {
		t.Errorf("scheduled %d fabric passes, want 2 (hop and exit elided)", len(res.BlockRuns))
	}
}

// TestVGIWTileRespectsLVCapacity: a kernel with many live values must tile
// so that the live-value matrix fits the LVC.
func TestVGIWTileRespectsLVCapacity(t *testing.T) {
	build := func() *kir.Kernel {
		b := kir.NewBuilder("manylv")
		b.SetParams(1)
		entry := b.NewBlock("entry")
		body := b.NewBlock("body")
		b.SetBlock(entry)
		base := b.Add(b.Param(0), b.MulI(b.Tid(), 8))
		// Eight loaded values crossing into the next block.
		var vals []kir.Reg
		for i := int32(0); i < 8; i++ {
			vals = append(vals, b.Load(base, i))
		}
		b.Branch(b.SetLT(b.Tid(), b.Const(1<<30)), body, body)
		b.SetBlock(body)
		acc := vals[0]
		for _, v := range vals[1:] {
			acc = b.Add(acc, v)
		}
		b.Store(b.Add(b.Param(0), b.MulI(b.Tid(), 8)), 0, acc)
		b.Ret()
		return b.MustBuild()
	}
	const n = 8192
	launch := kir.Launch1D(n/64, 64, 0)
	cfg := DefaultConfig()
	cfg.LVC.SizeBytes = 16 << 10 // 16KB: 8 LVs * 4B => tile <= 512
	res, _ := runVGIW(t, build, launch, make([]uint32, 8*n), cfg)
	if res.TileSize > 512 {
		t.Errorf("tile %d exceeds the LVC capacity bound 512", res.TileSize)
	}
	if res.Tiles < n/512 {
		t.Errorf("tiles = %d, want >= %d", res.Tiles, n/512)
	}
}

// Property: Register/Drain is lossless and sorted for arbitrary thread sets.
func TestCVTQuickProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewCVT(2, 1<<16)
		want := map[int]bool{}
		for _, r := range raw {
			c.Register(1, int(r))
			want[int(r)] = true
		}
		got := c.Drain(1, nil)
		if len(got) != len(want) {
			return false
		}
		prev := -1
		for _, id := range got {
			if id <= prev || !want[id] {
				return false
			}
			prev = id
		}
		return !c.Pending(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLVCSpillsToMemory: a matrix bigger than the cache forces evictions
// and spills through the L2 (§3.4).
func TestLVCSpillsToMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LVC.SizeBytes = 4 << 10 // 4KB cache over a 64KB matrix
	sys := newTestSystem(cfg)
	l := NewLVC(cfg.LVC, sys, 16, 1024)
	now := int64(0)
	for lv := 0; lv < 16; lv++ {
		for tid := 0; tid < 1024; tid += 32 {
			_, now = l.Access(lv, tid, true, uint32(lv*tid), now)
		}
	}
	// Re-read everything: values survive eviction (the matrix is the
	// functional store; the cache only affects timing).
	for lv := 0; lv < 16; lv++ {
		for tid := 0; tid < 1024; tid += 32 {
			v, done := l.Access(lv, tid, false, 0, now)
			if v != uint32(lv*tid) {
				t.Fatalf("lv %d tid %d = %d, want %d", lv, tid, v, lv*tid)
			}
			now = done
		}
	}
	if l.Stats().Writebacks == 0 {
		t.Error("undersized LVC produced no spills")
	}
	if sys.Stats().L2.Accesses() == 0 {
		t.Error("spills did not reach the L2")
	}
}

// TestVGIWErrorPaths: invalid launches and parameter mismatches surface as
// errors, not panics.
func TestVGIWErrorPaths(t *testing.T) {
	m, err := NewMachine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := buildDiamond()
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ck, kir.Launch1D(1, 32), make([]uint32, 64)); err == nil {
		t.Error("want error for missing params")
	}
	if _, err := m.Run(ck, kir.Launch{GridX: 0, GridY: 1, BlockX: 32, BlockY: 1,
		Params: []uint32{0, 32}}, make([]uint32, 64)); err == nil {
		t.Error("want error for zero grid")
	}
	// Out-of-bounds memory.
	if _, err := m.Run(ck, kir.Launch1D(2, 32, 1<<20, 1<<20), make([]uint32, 8)); err == nil {
		t.Error("want out-of-bounds error")
	}
}

// TestVGIWTinyFabric: a kernel that cannot fit even after splitting (every
// block needs an initiator and a terminator CVU, and this fabric has none)
// is reported as a compile error, not a panic or a hang.
func TestVGIWTinyFabric(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fabric.Cols, cfg.Fabric.Rows = 4, 4
	cfg.Fabric.NumALU, cfg.Fabric.NumSCU = 6, 1
	cfg.Fabric.NumLDST, cfg.Fabric.NumLVU = 2, 2
	cfg.Fabric.NumSJU, cfg.Fabric.NumCVU = 5, 0
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := kir.NewBuilder("one")
	b.SetParams(1)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	b.Store(b.Param(0), 0, b.Tid())
	b.Ret()
	if _, err := m.Compile(b.MustBuild()); err == nil {
		t.Error("want error: no CVUs means no initiators/terminators")
	}
}

// TestEffectiveConfig: the effective config holds the tile a run uses in
// place of the CVT budget, drops the trace sink, and clears the LVC
// capacity exactly where the tile's live values fit without a set conflict.
// hotspot.kernel at scale 1 sits on the 256-thread CTA floor up to 16 KB:
// its 13 live values need 13 KB, which a 12 KB LVC spills and a 16 KB one
// holds.
func TestEffectiveConfig(t *testing.T) {
	spec, ok := kernels.ByName("hotspot.kernel")
	if !ok {
		t.Fatal("hotspot.kernel not registered")
	}
	inst, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := m.Compile(inst.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := m.Prepare(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kb    int
		evict bool
	}{{12, true}, {16, false}, {64, false}} {
		cfg := DefaultConfig()
		cfg.LVC.SizeBytes = c.kb << 10
		traced := cfg
		traced.Engine.Trace = trace.NewSink(trace.CatVGIW)
		eff := EffectiveConfig(traced, prep, inst.Launch)
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunPreparedCtx(context.Background(), prep, inst.Launch, append([]uint32(nil), inst.Global...))
		if err != nil {
			t.Fatal(err)
		}
		if eff.CVTCapacityBits != res.TileSize {
			t.Errorf("%d KB: effective CVT field %d, run's tile %d", c.kb, eff.CVTCapacityBits, res.TileSize)
		}
		if eff.Engine.Trace != nil {
			t.Errorf("%d KB: effective config keeps the trace sink", c.kb)
		}
		if kept := eff.LVC.SizeBytes != 0; kept != c.evict {
			t.Errorf("%d KB: effective LVC size %d, want it kept = %v", c.kb, eff.LVC.SizeBytes, c.evict)
		}
		if spilled := res.LVCStats.Writebacks > 0; spilled != c.evict {
			t.Errorf("%d KB: %d LVC spills, want spills = %v", c.kb, res.LVCStats.Writebacks, c.evict)
		}
	}
}
