package kir

import (
	"strings"
	"testing"
)

// saxpyKernel builds y[i] = a*x[i] + y[i] with a bounds guard.
func saxpyKernel(t testing.TB) *Kernel {
	t.Helper()
	b := NewBuilder("saxpy")
	b.SetParams(4) // n, a(bits), xBase, yBase
	entry := b.NewBlock("entry")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	tid := b.Tid()
	n := b.Param(0)
	inRange := b.SetLT(tid, n)
	b.Branch(inRange, body, exit)

	b.SetBlock(body)
	tid2 := b.Tid()
	a := b.Param(1)
	xb := b.Param(2)
	yb := b.Param(3)
	xa := b.Add(xb, tid2)
	ya := b.Add(yb, tid2)
	x := b.Load(xa, 0)
	y := b.Load(ya, 0)
	ax := b.FMul(a, x)
	r := b.FAdd(ax, y)
	b.Store(ya, 0, r)
	b.Jump(exit)

	b.SetBlock(exit)
	b.Ret()

	k, err := b.Build()
	if err != nil {
		t.Fatalf("build saxpy: %v", err)
	}
	return k
}

func TestBuilderSaxpyValidates(t *testing.T) {
	k := saxpyKernel(t)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(k.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(k.Blocks))
	}
	if k.HasLoops() {
		t.Error("saxpy should be loop-free")
	}
	if k.NumInstrs() == 0 {
		t.Error("no instructions")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("unterminated block", func(t *testing.T) {
		b := NewBuilder("bad")
		b.NewBlock("entry")
		if _, err := b.Build(); err == nil {
			t.Error("want error for unterminated block")
		}
	})
	t.Run("emit after terminator", func(t *testing.T) {
		b := NewBuilder("bad")
		blk := b.NewBlock("entry")
		b.SetBlock(blk)
		b.Ret()
		b.Const(1)
		if _, err := b.Build(); err == nil {
			t.Error("want error for emit into terminated block")
		}
	})
	t.Run("double terminator", func(t *testing.T) {
		b := NewBuilder("bad")
		b.SetBlock(b.NewBlock("entry"))
		b.Ret()
		b.Ret()
		if _, err := b.Build(); err == nil {
			t.Error("want error for double termination")
		}
	})
	t.Run("foreign block", func(t *testing.T) {
		b1 := NewBuilder("a")
		other := b1.NewBlock("x")
		b2 := NewBuilder("b")
		b2.SetBlock(b2.NewBlock("entry"))
		b2.Jump(other)
		if _, err := b2.Build(); err == nil {
			t.Error("want error for jump to foreign block")
		}
	})
	t.Run("bad param index", func(t *testing.T) {
		b := NewBuilder("bad")
		b.SetBlock(b.NewBlock("entry"))
		b.Param(3) // no params declared
		b.Ret()
		if _, err := b.Build(); err == nil {
			t.Error("want error for out-of-range parameter")
		}
	})
}

func TestValidateCatchesCorruption(t *testing.T) {
	k := saxpyKernel(t)
	k.Blocks[1].Instrs[0].Src[0] = Reg(k.NumRegs + 5)
	if err := k.Validate(); err == nil {
		t.Error("want error for out-of-range register")
	}

	k = saxpyKernel(t)
	k.Blocks[0].Term.Then = 99
	if err := k.Validate(); err == nil {
		t.Error("want error for out-of-range successor")
	}

	k = saxpyKernel(t)
	k.Blocks[0].Barrier = true
	if err := k.Validate(); err == nil {
		t.Error("want error for barrier on entry block")
	}

	// A negative declaration would size a slice below zero in every
	// machine, so it is a structural rule too; Validate reports the first
	// of the findings Check lists.
	k = saxpyKernel(t)
	k.SharedWds = -4
	k.Blocks[0].Term.Then = 99
	var fs []Finding
	k.Check(func(f Finding) { fs = append(fs, f) })
	if len(fs) != 2 || fs[0].Block != -1 || fs[1].Block != 0 {
		t.Fatalf("Check = %+v, want the negative declaration, then block 0's successor", fs)
	}
	err := k.Validate()
	if want := "kernel saxpy: " + fs[0].Msg; err == nil || err.Error() != want {
		t.Errorf("Validate() = %v, want %q", err, want)
	}
}

func TestValidateLaunch(t *testing.T) {
	k := &Kernel{Name: "l", NumParams: 2}
	for _, tc := range []struct {
		launch Launch
		want   string // empty for a valid launch
	}{
		{Launch1D(1, 4, 1, 2), ""},
		{Launch{GridX: 0, GridY: 1, BlockX: 4, BlockY: 1, Params: []uint32{1, 2}}, "launch dimensions must be positive: grid 0x1 block 4x1"},
		{Launch{GridX: 1, GridY: 1, BlockX: 4, BlockY: -1, Params: []uint32{1, 2}}, "launch dimensions must be positive: grid 1x1 block 4x-1"},
		{Launch1D(1, 4, 1), "declares 2 params, launch provides 1"},
	} {
		err := k.ValidateLaunch(tc.launch)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: valid launch rejected: %v", tc.launch, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: error %v, want %q", tc.launch, err, tc.want)
		}
	}
}

func TestKernelString(t *testing.T) {
	s := saxpyKernel(t).String()
	for _, want := range []string{"kernel saxpy", "@0 entry:", "fmul", "ret", "br r"} {
		if !strings.Contains(s, want) {
			t.Errorf("kernel dump missing %q:\n%s", want, s)
		}
	}
}

func TestLaunchGeometry(t *testing.T) {
	l := Launch{GridX: 3, GridY: 2, BlockX: 4, BlockY: 2}
	if got := l.Threads(); got != 48 {
		t.Fatalf("Threads = %d, want 48", got)
	}
	if got := l.CTAs(); got != 6 {
		t.Fatalf("CTAs = %d, want 6", got)
	}
	// Thread 13 = CTA 1 (ctaX=1, ctaY=0), local 5 (tidx=1, tidy=1).
	tid := 13
	checks := map[Op]uint32{
		OpTID: 13, OpTIDX: 1, OpTIDY: 1, OpCTAX: 1, OpCTAY: 0,
		OpNTIDX: 4, OpNTIDY: 2, OpNCTAX: 3, OpNCTAY: 2,
	}
	for op, want := range checks {
		if got := l.Geometry(op, tid); got != want {
			t.Errorf("Geometry(%v, %d) = %d, want %d", op, tid, got, want)
		}
	}
	if l.CTAOf(13) != 1 {
		t.Errorf("CTAOf(13) = %d, want 1", l.CTAOf(13))
	}
}

func TestLaunchGeometryCoversAllThreads(t *testing.T) {
	l := Launch{GridX: 2, GridY: 3, BlockX: 5, BlockY: 2}
	seen := make(map[[4]uint32]bool)
	for tid := 0; tid < l.Threads(); tid++ {
		key := [4]uint32{
			l.Geometry(OpTIDX, tid), l.Geometry(OpTIDY, tid),
			l.Geometry(OpCTAX, tid), l.Geometry(OpCTAY, tid),
		}
		if seen[key] {
			t.Fatalf("duplicate coordinates %v for tid %d", key, tid)
		}
		seen[key] = true
		if key[0] >= uint32(l.BlockX) || key[1] >= uint32(l.BlockY) ||
			key[2] >= uint32(l.GridX) || key[3] >= uint32(l.GridY) {
			t.Fatalf("coordinates %v out of range for tid %d", key, tid)
		}
	}
}

func TestInterpSaxpy(t *testing.T) {
	k := saxpyKernel(t)
	const n = 100
	mem := make([]uint32, 2*n)
	for i := 0; i < n; i++ {
		mem[i] = F32(float32(i))       // x
		mem[n+i] = F32(float32(2 * i)) // y
	}
	launch := Launch1D(4, 32, n, F32(0.5), 0, n) // 128 threads; 28 masked off by the guard
	in := &Interp{Kernel: k, Launch: launch, Global: mem}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 0.5*float32(i) + float32(2*i)
		if got := AsF32(mem[n+i]); got != want {
			t.Fatalf("y[%d] = %g, want %g", i, got, want)
		}
	}
}

// loopKernel sums 0..tid into out[tid] using a data-dependent loop.
func loopKernel(t testing.TB) *Kernel {
	t.Helper()
	b := NewBuilder("loopsum")
	b.SetParams(1) // outBase
	entry := b.NewBlock("entry")
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Const(0)
	sum := b.Const(0)
	b.Jump(loop)

	// Loop-carried registers i and sum are redefined each iteration.
	b.SetBlock(loop)
	sum1 := b.Add(sum, i)
	i1 := b.AddI(i, 1)
	b.MovTo(sum, sum1)
	b.MovTo(i, i1)
	cont := b.SetLE(i1, tid)
	b.Branch(cont, loop, exit)

	b.SetBlock(exit)
	out := b.Param(0)
	addr := b.Add(out, tid)
	b.Store(addr, 0, sum)
	b.Ret()

	k, err := b.Build()
	if err != nil {
		t.Fatalf("build loopsum: %v", err)
	}
	return k
}

func TestInterpLoop(t *testing.T) {
	k := loopKernel(t)
	if !k.HasLoops() {
		t.Fatal("loopsum should report loops")
	}
	const n = 64
	mem := make([]uint32, n)
	in := &Interp{Kernel: k, Launch: Launch1D(2, 32, 0), Global: mem}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < n; tid++ {
		want := uint32(tid * (tid + 1) / 2)
		if mem[tid] != want {
			t.Fatalf("out[%d] = %d, want %d", tid, mem[tid], want)
		}
	}
}

func TestInterpSharedMemoryBarrier(t *testing.T) {
	// Each thread stores tid into shared[tidx], syncs, then reads its
	// neighbour's slot (reversal within the CTA) and writes it out.
	b := NewBuilder("reverse")
	b.SetParams(1) // outBase
	b.SetShared(32)
	entry := b.NewBlock("entry")
	after := b.NewBlock("after")
	b.SetBlock(entry)
	tidx := b.TidX()
	tid := b.Tid()
	b.StoreSh(tidx, 0, tid)
	b.Jump(after)
	b.MarkBarrier(after)

	b.SetBlock(after)
	last := b.Const(31)
	rev := b.Sub(last, b.TidX())
	v := b.LoadSh(rev, 0)
	out := b.Param(0)
	addr := b.Add(out, b.Tid())
	b.Store(addr, 0, v)
	b.Ret()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	mem := make([]uint32, 64)
	in := &Interp{Kernel: k, Launch: Launch1D(2, 32, 0), Global: mem}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 64; tid++ {
		cta, tidx := tid/32, tid%32
		want := uint32(cta*32 + (31 - tidx))
		if mem[tid] != want {
			t.Fatalf("out[%d] = %d, want %d", tid, mem[tid], want)
		}
	}
}

func TestInterpRunawayLoopDetected(t *testing.T) {
	b := NewBuilder("spin")
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	b.Jump(blk)
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := &Interp{Kernel: k, Launch: Launch1D(1, 1), MaxSteps: 100}
	if err := in.Run(); err == nil {
		t.Error("want runaway-loop error")
	}
}

func TestInterpParamCountMismatch(t *testing.T) {
	k := saxpyKernel(t)
	in := &Interp{Kernel: k, Launch: Launch1D(1, 32), Global: make([]uint32, 16)}
	if err := in.Run(); err == nil {
		t.Error("want error for wrong parameter count")
	}
}

func TestInterpOutOfBoundsMemory(t *testing.T) {
	k := saxpyKernel(t)
	launch := Launch1D(1, 32, 32, F32(1), 0, 1<<20) // yBase far out of range
	in := &Interp{Kernel: k, Launch: launch, Global: make([]uint32, 64)}
	if err := in.Run(); err == nil {
		t.Error("want out-of-bounds error")
	}
}

func TestTerminatorSuccs(t *testing.T) {
	if got := (Terminator{Kind: TermRet}).Succs(); len(got) != 0 {
		t.Errorf("ret succs = %v", got)
	}
	if got := (Terminator{Kind: TermJump, Then: 3}).Succs(); len(got) != 1 || got[0] != 3 {
		t.Errorf("jump succs = %v", got)
	}
	if got := (Terminator{Kind: TermBranch, Then: 1, Else: 2}).Succs(); len(got) != 2 {
		t.Errorf("branch succs = %v", got)
	}
	if got := (Terminator{Kind: TermBranch, Then: 1, Else: 1}).Succs(); len(got) != 1 {
		t.Errorf("degenerate branch succs = %v", got)
	}
}
