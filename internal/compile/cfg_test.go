package compile

import (
	"fmt"
	"testing"

	"vgiw/internal/kir"
)

// diamond builds the Figure 1a CFG shape:
//
//	BB1 -> {BB2, BB3}; BB3 -> {BB4, BB5}; BB2,BB4,BB5 -> BB6.
func diamond(t testing.TB) *kir.Kernel {
	t.Helper()
	b := kir.NewBuilder("fig1a")
	b.SetParams(2) // inBase, outBase
	bb1 := b.NewBlock("bb1")
	bb2 := b.NewBlock("bb2")
	bb3 := b.NewBlock("bb3")
	bb4 := b.NewBlock("bb4")
	bb5 := b.NewBlock("bb5")
	bb6 := b.NewBlock("bb6")

	b.SetBlock(bb1)
	tid := b.Tid()
	inB := b.Param(0)
	addr := b.Add(inB, tid)
	v := b.Load(addr, 0)
	c1 := b.SetLT(v, b.Const(10))
	b.Branch(c1, bb2, bb3)

	b.SetBlock(bb2)
	x2 := b.MulI(v, 2)
	r2 := b.Mov(x2)
	b.Jump(bb6)

	b.SetBlock(bb3)
	c2 := b.SetLT(v, b.Const(100))
	b.Branch(c2, bb4, bb5)

	b.SetBlock(bb4)
	x4 := b.AddI(v, 7)
	b.MovTo(r2, x4)
	b.Jump(bb6)

	b.SetBlock(bb5)
	x5 := b.Sub(v, tid)
	b.MovTo(r2, x5)
	b.Jump(bb6)

	b.SetBlock(bb6)
	outB := b.Param(1)
	oaddr := b.Add(outB, tid)
	b.Store(oaddr, 0, r2)
	b.Ret()

	return b.MustBuild()
}

func TestPredsAndRPO(t *testing.T) {
	k := diamond(t)
	preds := Preds(k)
	if len(preds[0]) != 0 {
		t.Errorf("entry preds = %v, want none", preds[0])
	}
	if len(preds[5]) != 3 {
		t.Errorf("bb6 preds = %v, want 3", preds[5])
	}
	rpo := ReversePostorder(k)
	if rpo[0] != 0 {
		t.Fatalf("rpo[0] = %d, want 0 (entry)", rpo[0])
	}
	if len(rpo) != 6 {
		t.Fatalf("rpo covers %d blocks, want 6", len(rpo))
	}
	pos := make([]int, len(k.Blocks))
	for i, b := range rpo {
		pos[b] = i
	}
	// In RPO of a DAG every edge goes forward.
	for bi, b := range k.Blocks {
		for _, s := range b.Term.Succs() {
			if pos[s] <= pos[bi] {
				t.Errorf("edge %d->%d not forward in RPO", bi, s)
			}
		}
	}
}

func TestReachableDropsOrphans(t *testing.T) {
	k := diamond(t)
	// Add an orphan block by hand.
	k.Blocks = append(k.Blocks, &kir.Block{Label: "orphan", Term: kir.Terminator{Kind: kir.TermRet}})
	reach := Reachable(k)
	if reach[len(k.Blocks)-1] {
		t.Error("orphan reported reachable")
	}
	if _, err := ScheduleBlocks(k); err != nil {
		t.Fatal(err)
	}
	if len(k.Blocks) != 6 {
		t.Errorf("scheduling kept %d blocks, want 6 (orphan dropped)", len(k.Blocks))
	}
}

func TestImmPostDomsDiamond(t *testing.T) {
	k := diamond(t)
	ipdom := ImmPostDoms(k)
	// bb1(0) and bb3(2) reconverge at bb6(5); bb2/bb4/bb5 also flow to 5.
	for _, b := range []int{0, 1, 2, 3, 4} {
		if ipdom[b] != 5 {
			t.Errorf("ipdom[%d] = %d, want 5", b, ipdom[b])
		}
	}
	if ipdom[5] != -1 {
		t.Errorf("ipdom[exit] = %d, want -1", ipdom[5])
	}
}

func TestImmPostDomsLoop(t *testing.T) {
	// entry -> loop; loop -> {loop, exit}; exit -> ret.
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
	c := b.SetLT(i1, b.Const(10))
	b.Branch(c, loop, exit)
	b.SetBlock(exit)
	b.Ret()
	k := b.MustBuild()

	ipdom := ImmPostDoms(k)
	if ipdom[0] != 1 {
		t.Errorf("ipdom[entry] = %d, want loop (1)", ipdom[0])
	}
	if ipdom[1] != 2 {
		t.Errorf("ipdom[loop] = %d, want exit (2)", ipdom[1])
	}
	if ipdom[2] != -1 {
		t.Errorf("ipdom[exit] = %d, want -1", ipdom[2])
	}
	if !k.HasLoops() {
		t.Error("kernel should report loops")
	}
}

func TestScheduleBlocksNormalizesOrder(t *testing.T) {
	// Build with blocks declared out of order: entry jumps to a block
	// declared last.
	b := kir.NewBuilder("scrambled")
	entry := b.NewBlock("entry")
	late := b.NewBlock("late") // declared second, reached last
	mid := b.NewBlock("mid")
	b.SetBlock(entry)
	c := b.SetLT(b.Tid(), b.Const(4))
	b.Branch(c, mid, late)
	b.SetBlock(mid)
	b.Jump(late)
	b.SetBlock(late)
	b.Ret()
	k := b.MustBuild()

	if _, err := ScheduleBlocks(k); err != nil {
		t.Fatal(err)
	}
	// After scheduling: every forward edge goes to a larger ID.
	for bi, blk := range k.Blocks {
		for _, s := range blk.Term.Succs() {
			if s <= bi {
				t.Errorf("edge %d->%d should be forward after scheduling", bi, s)
			}
		}
	}
	if k.Blocks[0].Label != "entry" {
		t.Errorf("entry block is %q, want entry", k.Blocks[0].Label)
	}
	if k.Blocks[len(k.Blocks)-1].Label != "late" {
		t.Errorf("last block is %q, want late", k.Blocks[len(k.Blocks)-1].Label)
	}
}

// TestScheduleBlocksRejectsBadSuccessor checks that ScheduleBlocks validates
// its input before it walks the CFG: a successor outside the kernel's blocks
// gets kir's error, not an index-out-of-range panic.
func TestScheduleBlocksRejectsBadSuccessor(t *testing.T) {
	for _, succ := range []int{7, -1} {
		t.Run(fmt.Sprint(succ), func(t *testing.T) {
			b := kir.NewBuilder("two")
			entry, exit := b.NewBlock("entry"), b.NewBlock("exit")
			b.SetBlock(entry)
			b.Jump(exit)
			b.SetBlock(exit)
			b.Ret()
			k := b.MustBuild()
			k.Blocks[0].Term.Then = succ
			want := k.Validate()
			if want == nil {
				t.Fatalf("successor %d passes kir's check", succ)
			}
			if _, err := ScheduleBlocks(k); err == nil || err.Error() != want.Error() {
				t.Errorf("ScheduleBlocks error %v, want kir's %v", err, want)
			}
		})
	}
}

func TestLivenessDiamond(t *testing.T) {
	k := diamond(t)
	flows := Liveness(k)
	// v (the load result) is defined in bb1 and used in bb2, bb3, bb4, bb5.
	vReg := k.Blocks[0].Instrs[3].Dst
	if !flows[0].LiveOut.Has(vReg) {
		t.Error("v should be live-out of bb1")
	}
	for _, bi := range []int{1, 2, 3, 4} {
		if !flows[bi].LiveIn.Has(vReg) {
			t.Errorf("v should be live-in of block %d", bi)
		}
	}
	if flows[5].LiveIn.Has(vReg) {
		t.Error("v should not be live-in of bb6")
	}
	// tid is used in bb1, bb5 (x5 = v - tid) and bb6 (output address).
	tidReg := k.Blocks[0].Instrs[0].Dst
	if !flows[4].LiveIn.Has(tidReg) || !flows[5].LiveIn.Has(tidReg) {
		t.Error("tid should be live into bb5 and bb6")
	}
}

func TestAllocateLiveValues(t *testing.T) {
	k := diamond(t)
	lv := AllocateLiveValues(k)
	if lv.NumIDs == 0 {
		t.Fatal("no live values allocated in a divergent kernel")
	}
	// Each crossing register gets exactly one ID; IDs are dense.
	seen := make(map[int]bool)
	for r, id := range lv.IDOf {
		if id == -1 {
			continue // r never crosses a block
		}
		if id < 0 || id >= lv.NumIDs {
			t.Errorf("r%d has out-of-range LV id %d", r, id)
		}
		if seen[id] {
			t.Errorf("LV id %d assigned twice", id)
		}
		seen[id] = true
	}
	// bb6 stores the merged result; it must load r2 and tid.
	if len(lv.Loads[5]) < 2 {
		t.Errorf("bb6 loads %v, want at least r2 and tid", lv.Loads[5])
	}
	// bb1 must store v (and tid) for downstream blocks.
	if len(lv.Stores[0]) < 2 {
		t.Errorf("bb1 stores %v, want at least v and tid", lv.Stores[0])
	}
	// Entry block loads nothing.
	if len(lv.Loads[0]) != 0 {
		t.Errorf("entry block loads %v, want none", lv.Loads[0])
	}
}

func TestLoopLiveValues(t *testing.T) {
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
	c := b.SetLE(i1, tid)
	b.Branch(c, loop, exit)
	b.SetBlock(exit)
	addr := b.Add(b.Param(0), tid)
	b.Store(addr, 0, sum)
	b.Ret()
	k := b.MustBuild()

	lv := AllocateLiveValues(k)
	// The loop block must both load and store the carried registers.
	if len(lv.Loads[1]) < 3 { // i, sum, tid
		t.Errorf("loop loads %v, want i, sum, tid", lv.Loads[1])
	}
	if len(lv.Stores[1]) < 2 { // i, sum
		t.Errorf("loop stores %v, want i, sum", lv.Stores[1])
	}
}
