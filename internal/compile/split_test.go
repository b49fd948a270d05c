package compile

import (
	"testing"

	"vgiw/internal/kir"
)

// wideKernel builds a single block with `adds` chained integer adds.
func wideKernel(adds int) *kir.Kernel {
	b := kir.NewBuilder("wide")
	b.SetParams(1)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	tid := b.Tid()
	acc := tid
	for i := 0; i < adds; i++ {
		acc = b.Add(acc, tid)
	}
	b.Store(b.Add(b.Param(0), b.Tid()), 0, acc)
	b.Ret()
	return b.MustBuild()
}

// aluLimit is a fits predicate capping ALU nodes per block.
func aluLimit(n int) func(*BlockDFG) bool {
	return func(g *BlockDFG) bool {
		return g.ClassCounts()[kir.ClassALU] <= n
	}
}

func TestCompileFittedSplitsOversized(t *testing.T) {
	k := wideKernel(40)
	ck, err := CompileFitted(k, aluLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Kernel.Blocks) < 3 {
		t.Errorf("expected >= 3 blocks after splitting a 40-add chain at 16 ALU/block, got %d",
			len(ck.Kernel.Blocks))
	}
	for bi, g := range ck.DFGs {
		if c := g.ClassCounts()[kir.ClassALU]; c > 16 {
			t.Errorf("block %d still has %d ALU nodes", bi, c)
		}
	}
}

func TestCompileFittedPreservesSemantics(t *testing.T) {
	const n = 64
	run := func(k *kir.Kernel) []uint32 {
		mem := make([]uint32, n)
		in := &kir.Interp{Kernel: k, Launch: kir.Launch1D(2, 32, 0), Global: mem}
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	ref := run(wideKernel(40))

	k := wideKernel(40)
	if _, err := CompileFitted(k, aluLimit(10)); err != nil {
		t.Fatal(err)
	}
	got := run(k)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], ref[i])
		}
	}
}

func TestCompileFittedUnsatisfiable(t *testing.T) {
	k := wideKernel(4)
	if _, err := CompileFitted(k, func(*BlockDFG) bool { return false }); err == nil {
		t.Error("want error when nothing can fit")
	}
}

func TestSplitBlockKeepsBranches(t *testing.T) {
	// Splitting a block inside a diamond must keep all edges consistent.
	k := diamond(t)
	// Make bb3 (index 2 in builder order) large enough to matter.
	if err := splitBlock(k, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// The split block's continuation should carry the original branch.
	if k.Blocks[0].Term.Kind != kir.TermJump || k.Blocks[0].Term.Then != 1 {
		t.Errorf("first half terminator = %v", k.Blocks[0].Term)
	}
	if k.Blocks[1].Term.Kind != kir.TermBranch {
		t.Errorf("continuation terminator = %v", k.Blocks[1].Term)
	}

	// Functional check against the unsplit kernel.
	const n = 64
	mk := func() []uint32 {
		m := make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			m[i] = uint32(i * 7 % 250)
		}
		return m
	}
	ref := mk()
	in := &kir.Interp{Kernel: diamond(t), Launch: kir.Launch1D(2, 32, 0, n), Global: ref}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	got := mk()
	in2 := &kir.Interp{Kernel: k, Launch: kir.Launch1D(2, 32, 0, n), Global: got}
	if err := in2.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: split %d, ref %d", i, got[i], ref[i])
		}
	}
}

func TestSplitBlockSelfLoop(t *testing.T) {
	// A self-looping block splits into a two-block loop.
	b := kir.NewBuilder("selfloop")
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
	s1 := b.Add(sum, i)
	b.MovTo(sum, s1)
	i1 := b.AddI(i, 1)
	b.MovTo(i, i1)
	b.Branch(b.SetLE(i1, tid), loop, exit)
	b.SetBlock(exit)
	b.Store(b.Add(b.Param(0), tid), 0, sum)
	b.Ret()
	k := b.MustBuild()

	const n = 64
	ref := make([]uint32, n)
	in := &kir.Interp{Kernel: k.Clone(), Launch: kir.Launch1D(2, 32, 0), Global: ref}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}

	if err := splitBlock(k, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]uint32, n)
	in2 := &kir.Interp{Kernel: k, Launch: kir.Launch1D(2, 32, 0), Global: got}
	if err := in2.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], ref[i])
		}
	}
}

func TestRematerializeRemovesCrossBlockGeometry(t *testing.T) {
	// tid defined in entry and used in a later block must not become a
	// live value.
	b := kir.NewBuilder("remat")
	b.SetParams(1)
	entry := b.NewBlock("entry")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.SetBlock(entry)
	tid := b.Tid()
	base := b.Param(0)
	c := b.SetLT(tid, b.Const(100))
	b.Branch(c, body, exit)
	b.SetBlock(body)
	b.Store(b.Add(base, tid), 0, tid) // cross-block uses of tid and base
	b.Jump(exit)
	b.SetBlock(exit)
	b.Ret()
	k := b.MustBuild()

	ck, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if ck.LV.NumIDs != 0 {
		t.Errorf("rematerializable values produced %d live values", ck.LV.NumIDs)
	}

	// And semantics are preserved.
	const n = 128
	got := make([]uint32, n)
	in := &kir.Interp{Kernel: k, Launch: kir.Launch1D(4, 32, 0), Global: got}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got[i] != uint32(i) {
			t.Fatalf("out[%d] = %d", i, got[i])
		}
	}
	for i := 100; i < n; i++ {
		if got[i] != 0 {
			t.Fatalf("guarded store leaked to %d", i)
		}
	}
}

func TestRematerializeKeepsComputedValues(t *testing.T) {
	// A loaded value crossing blocks must remain a live value.
	b := kir.NewBuilder("keep")
	b.SetParams(1)
	entry := b.NewBlock("entry")
	body := b.NewBlock("body")
	b.SetBlock(entry)
	v := b.Load(b.Add(b.Param(0), b.Tid()), 0)
	b.Branch(b.SetLT(v, b.Const(10)), body, body)
	b.SetBlock(body)
	b.Store(b.Add(b.Param(0), b.Tid()), 0, b.Add(v, v))
	b.Ret()
	k := b.MustBuild()
	ck, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if ck.LV.NumIDs == 0 {
		t.Error("the loaded value must cross through the LVC")
	}
}
