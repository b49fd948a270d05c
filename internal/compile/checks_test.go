package compile

import (
	"strings"
	"testing"

	"vgiw/internal/kernels"
	"vgiw/internal/kir"
	"vgiw/internal/verify"
)

// passOf returns the Pass fields of every diagnostic carried by err.
func passOf(t *testing.T, err error) []string {
	t.Helper()
	if err == nil {
		t.Fatal("expected a verification error, got nil")
	}
	ds := verify.Diagnostics(err)
	if len(ds) == 0 {
		t.Fatalf("error carries no structured diagnostics: %v", err)
	}
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Pass
	}
	return out
}

// TestBrokenPassCaught simulates a buggy compiler pass at each pipeline
// stage and asserts the Checked pipeline fails with a structured diagnostic
// naming that stage. The mutations mirror real pass-bug classes: dropping a
// definition (broken remat), reordering blocks (broken scheduling), and
// stale analysis results (broken split bookkeeping).
func TestBrokenPassCaught(t *testing.T) {
	o := buildOptions([]Option{Checked()})

	t.Run("remat drops a definition", func(t *testing.T) {
		k := diamond(t)
		Rematerialize(k)
		// A buggy remat that deletes the cloned def instead of inserting it:
		// remove the first defining instruction of a multi-use register.
		b := k.Blocks[0]
		b.Instrs = b.Instrs[1:]
		err := o.checkKernel("remat", k, verify.Source)
		for _, p := range passOf(t, err) {
			if p != "remat" {
				t.Errorf("diagnostic names pass %q, want remat", p)
			}
		}
		if !strings.Contains(err.Error(), "used before definition") {
			t.Errorf("error %v does not name the broken invariant", err)
		}
	})

	t.Run("scheduling misnumbers blocks", func(t *testing.T) {
		k := diamond(t)
		if _, err := ScheduleBlocks(k); err != nil {
			t.Fatal(err)
		}
		// A buggy scheduler that swaps two blocks but fixes up the
		// terminator targets, so kir.Validate still passes.
		swap := func(a, b int) {
			k.Blocks[a], k.Blocks[b] = k.Blocks[b], k.Blocks[a]
			for _, blk := range k.Blocks {
				tm := &blk.Term
				fix := func(x int) int {
					switch x {
					case a:
						return b
					case b:
						return a
					}
					return x
				}
				tm.Then, tm.Else = fix(tm.Then), fix(tm.Else)
			}
		}
		swap(1, 2)
		if err := k.Validate(); err != nil {
			t.Fatalf("mutation must keep the kernel kir-valid: %v", err)
		}
		err := o.checkKernel("schedule", k, verify.Compiled)
		for _, p := range passOf(t, err) {
			if p != "schedule" {
				t.Errorf("diagnostic names pass %q, want schedule", p)
			}
		}
		if !strings.Contains(err.Error(), "reverse-postorder") {
			t.Errorf("error %v does not name the schedule rule", err)
		}
	})

	t.Run("stale live-value allocation", func(t *testing.T) {
		k := diamond(t)
		if _, err := ScheduleBlocks(k); err != nil {
			t.Fatal(err)
		}
		lv := AllocateLiveValues(k)
		// A buggy split pass that moves instructions between blocks without
		// re-running liveness: move the tail of block 1 into block 2.
		b1, b2 := k.Blocks[1], k.Blocks[2]
		n := len(b1.Instrs)
		b2.Instrs = append(append([]kir.Instr(nil), b1.Instrs[n-1:]...), b2.Instrs...)
		b1.Instrs = b1.Instrs[:n-1]
		ds := VerifyLiveValues("split", k, lv)
		if len(ds) == 0 {
			t.Fatal("stale allocation not detected")
		}
		for _, d := range ds {
			if d.Pass != "split" {
				t.Errorf("diagnostic names pass %q, want split", d.Pass)
			}
		}
	})
}

// TestCheckedCompileCatchesMutation drives the mutation through the public
// entry point: a kernel corrupted before Compile fails under Checked with a
// diagnostic naming the input stage, and compiles to the same artifact as
// the unchecked pipeline when healthy.
func TestCheckedCompileCatchesMutation(t *testing.T) {
	k := diamond(t)
	// Corrupt: make some instruction reference a register that is never
	// defined anywhere. The reg stays in range, so kir.Validate still passes.
	k.NumRegs++
	b := k.Blocks[5]
	for i := range b.Instrs {
		if b.Instrs[i].Op.NumSrc() > 0 {
			b.Instrs[i].Src[0] = kir.Reg(k.NumRegs - 1)
			break
		}
	}
	if _, err := Compile(k.Clone()); err != nil {
		t.Fatalf("unchecked compile must still accept it (DFG build sees the use as live-in): %v", err)
	}
	_, err := Compile(k, Checked())
	for _, p := range passOf(t, err) {
		if p != "input" {
			t.Errorf("diagnostic names pass %q, want input", p)
		}
	}
}

func TestVerifyGraphCatchesCorruption(t *testing.T) {
	fresh := func(t *testing.T) *CompiledKernel {
		ck, err := Compile(diamond(t), Checked())
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}

	t.Run("clean graphs pass", func(t *testing.T) {
		ck := fresh(t)
		for _, g := range ck.DFGs {
			if ds := VerifyGraph("dfg", g, ck.LV.NumIDs); len(ds) > 0 {
				t.Fatalf("clean graph flagged: %v", verify.Join(ds))
			}
		}
	})

	t.Run("backward edge", func(t *testing.T) {
		ck := fresh(t)
		g := ck.DFGs[0]
		n := g.Nodes[1]
		n.In = append([]int(nil), n.In...)
		n.In[0] = len(g.Nodes) - 1 // point at a later node
		ds := VerifyGraph("dfg", g, ck.LV.NumIDs)
		if !diagMentions(ds, "backward edge") {
			t.Fatalf("backward edge not flagged: %v", verify.Join(ds))
		}
	})

	t.Run("fanout over limit", func(t *testing.T) {
		ck := fresh(t)
		g := ck.DFGs[0]
		var victim *Node
		for _, n := range g.Nodes {
			if n.Kind != NodeInit && len(n.Out) > 0 {
				victim = n
				break
			}
		}
		for len(victim.Out) <= MaxFanout {
			victim.Out = append(victim.Out, g.Term)
		}
		ds := VerifyGraph("dfg", g, ck.LV.NumIDs)
		if !diagMentions(ds, "fans out") {
			t.Fatalf("fanout violation not flagged: %v", verify.Join(ds))
		}
	})

	t.Run("live-value ID out of range", func(t *testing.T) {
		ck := fresh(t)
		for _, g := range ck.DFGs {
			for _, n := range g.Nodes {
				if n.Kind == NodeLVLoad || n.Kind == NodeLVStore {
					n.LV = ck.LV.NumIDs + 3
					ds := VerifyGraph("dfg", g, ck.LV.NumIDs)
					if !diagMentions(ds, "live-value ID") {
						t.Fatalf("LV bound not flagged: %v", verify.Join(ds))
					}
					return
				}
			}
		}
		t.Fatal("diamond kernel has no LV nodes to corrupt")
	})
}

func diagMentions(ds []verify.Diagnostic, sub string) bool {
	for _, d := range ds {
		if strings.Contains(d.Msg, sub) {
			return true
		}
	}
	return false
}

// TestRegistryPipelinesChecked runs every registry kernel through the full
// compiler pipelines with Checked() on, so each pass is followed by a
// verifier run over real kernels. Any diagnostic is a compiler bug (or a
// verifier false positive — both block the suite).
func TestRegistryPipelinesChecked(t *testing.T) {
	// A fits predicate small enough to force splitBlock rounds on the
	// larger kernels, so the "split" check sees post-split kernels.
	fits := func(g *BlockDFG) bool { return len(g.Nodes) <= 24 }
	for _, spec := range kernels.All() {
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := CompileFitted(inst.Kernel.Clone(), fits, Checked()); err != nil {
				t.Errorf("CompileFitted: %v", err)
			}
			// SGMF path: schedule, unroll, if-convert (acyclic kernels only).
			k := inst.Kernel.Clone()
			if _, err := ScheduleBlocks(k); err != nil {
				t.Fatalf("ScheduleBlocks: %v", err)
			}
			if _, err := UnrollLoops(k, 16, 96, Checked()); err != nil {
				t.Fatalf("UnrollLoops: %v", err)
			}
			if !k.HasLoops() && !hasBarrier(k) {
				if _, err := IfConvert(k, Checked()); err != nil {
					t.Errorf("IfConvert: %v", err)
				}
			}
		})
	}
}

func hasBarrier(k *kir.Kernel) bool {
	for _, b := range k.Blocks {
		if b.Barrier {
			return true
		}
	}
	return false
}

// TestCheckSelectChain unit-tests the if-conversion mask-completeness
// checker against hand-built chains.
func TestCheckSelectChain(t *testing.T) {
	g := &BlockDFG{BlockID: -1}
	add := func(n *Node) int {
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		return n.ID
	}
	noRegs := [3]kir.Reg{kir.NoReg, kir.NoReg, kir.NoReg}
	val := func() int {
		return add(&Node{Kind: NodeOp, Instr: kir.Instr{Op: kir.OpConst, Dst: kir.NoReg, Src: noRegs}})
	}
	sel := func(pred, a, b int) int {
		return add(&Node{Kind: NodeOp, Instr: kir.Instr{Op: kir.OpSelect, Dst: kir.NoReg, Src: noRegs}, In: []int{pred, a, b}})
	}
	p1, p2 := val(), val()
	v1, v2, v3 := val(), val(), val()

	// Complete chain: fallback v1, then v2 under p1, then v3 under p2.
	chain := sel(p2, v3, sel(p1, v2, v1))
	inc := []predVal{{99, v1}, {p1, v2}, {p2, v3}} // fallback pred unused by checker
	if ds := checkSelectChain(g, "k", 3, 7, inc, chain); len(ds) != 0 {
		t.Fatalf("complete chain flagged: %v", verify.Join(ds))
	}

	// Mask-incomplete: the p1 edge's value never got a select level.
	short := sel(p2, v3, v1)
	ds := checkSelectChain(g, "k", 3, 7, inc, short)
	if !diagMentions(ds, "unaccounted") {
		t.Fatalf("incomplete chain not flagged: %v", verify.Join(ds))
	}

	// Wrong predicate on a level.
	wrong := sel(p1, v3, sel(p1, v2, v1))
	ds = checkSelectChain(g, "k", 3, 7, inc, wrong)
	if !diagMentions(ds, "select level") {
		t.Fatalf("wrong predicate not flagged: %v", verify.Join(ds))
	}

	// Unconditional edge subsumes earlier ones: chain is just its value.
	uncondInc := []predVal{{99, v1}, {-1, v2}}
	if ds := checkSelectChain(g, "k", 3, 7, uncondInc, v2); len(ds) != 0 {
		t.Fatalf("unconditional merge flagged: %v", verify.Join(ds))
	}
	ds = checkSelectChain(g, "k", 3, 7, uncondInc, v1)
	if !diagMentions(ds, "fallback") {
		t.Fatalf("wrong unconditional fallback not flagged: %v", verify.Join(ds))
	}
}
