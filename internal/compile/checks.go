package compile

import (
	"fmt"

	"vgiw/internal/kir"
	"vgiw/internal/verify"
)

// Option configures the compile pipeline entry points (Compile,
// CompileFitted, IfConvert).
type Option func(*options)

type options struct {
	checked bool
}

// Checked makes every pass run the verifier on its output: the kernel-level
// checks of internal/verify plus the pass-specific invariants in this file
// (live-value allocation, dataflow-graph structure, if-conversion select
// coverage). A broken transform then fails loudly at the offending pass —
// with a verify.Diagnostic naming it — instead of surfacing as a wrong cycle
// count three subsystems later. Checked mode is on throughout the test suite
// and in the daemon's compile path, and off in timed runs: with no Option
// the pipeline does no verification work at all.
func Checked() Option { return func(o *options) { o.checked = true } }

func buildOptions(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// checkKernel verifies the kernel after the named pass under Checked mode.
func (o options) checkKernel(pass string, k *kir.Kernel, mode verify.Mode) error {
	if !o.checked {
		return nil
	}
	if err := verify.Check(pass, k, mode); err != nil {
		return fmt.Errorf("compile: %s: %w", pass, err)
	}
	return nil
}

// VerifyLiveValues checks a live-value allocation against the kernel: the
// recorded loads, stores, and IDs must be exactly what liveness analysis
// derives from the current kernel text. Because AllocateLiveValues is a pure
// function of the kernel, any drift means a pass mutated blocks after
// allocation without re-running it — live values would silently read or miss
// the wrong LVC rows.
func VerifyLiveValues(pass string, k *kir.Kernel, lv *LiveValues) []verify.Diagnostic {
	c := diagList{pass: pass, kernel: k.Name, block: -1}
	for r, id := range lv.IDOf {
		if id < -1 || id >= lv.NumIDs {
			c.addf(-1, "live-value ID %d for r%d out of range [0,%d)", id, r, lv.NumIDs)
		}
	}
	if len(lv.Loads) != len(k.Blocks) || len(lv.Stores) != len(k.Blocks) || len(lv.IDOf) != k.NumRegs {
		c.addf(-1, "live-value tables cover %d/%d blocks and %d registers, kernel has %d and %d",
			len(lv.Loads), len(lv.Stores), len(lv.IDOf), len(k.Blocks), k.NumRegs)
		return c.ds
	}
	want := AllocateLiveValues(k)
	if lv.NumIDs != want.NumIDs {
		c.addf(-1, "allocation has %d live-value IDs, liveness requires %d", lv.NumIDs, want.NumIDs)
	}
	for bi := range k.Blocks {
		if !regsEqual(lv.Loads[bi], want.Loads[bi]) {
			c.addf(bi, "LVC loads %v do not match liveness %v", lv.Loads[bi], want.Loads[bi])
		}
		if !regsEqual(lv.Stores[bi], want.Stores[bi]) {
			c.addf(bi, "LVC stores %v do not match liveness %v", lv.Stores[bi], want.Stores[bi])
		}
	}
	for r, id := range want.IDOf {
		switch got := lv.IDOf[r]; {
		case got == id:
		case id < 0:
			c.addf(-1, "r%d has a live-value ID but never crosses a block boundary", r)
		default:
			c.addf(-1, "r%d allocated live-value ID %d, liveness requires %d", r, got, id)
		}
	}
	return c.ds
}

// VerifyGraph structurally checks one dataflow graph: dense topologically
// ordered node IDs (all edges point backward to producers — the only
// sanctioned "back edges" on the fabric are block re-entries through the
// CVT, never intra-graph channels), a single initiator and terminator,
// per-op operand arity, predication only on memory nodes, the MaxFanout
// channel limit, consumer lists consistent with the edges, and live-value
// indices within the allocation (numLVs 0 bans LV nodes entirely, as in the
// flattened SGMF graphs).
func VerifyGraph(pass string, g *BlockDFG, numLVs int) []verify.Diagnostic {
	c := diagList{pass: pass, block: g.BlockID}
	n := len(g.Nodes)
	inits, terms := 0, 0
	type edgeKey struct{ from, to int }
	outWant := make(map[edgeKey]int, n)
	for i, nd := range g.Nodes {
		if nd == nil {
			c.addf(-1, "node %d is nil", i)
			return c.ds
		}
		if nd.ID != i {
			c.addf(-1, "node at index %d carries ID %d", i, nd.ID)
			return c.ds
		}
		for _, p := range append(append([]int(nil), nd.In...), nd.CtlIn...) {
			if p < 0 || p >= n {
				c.addf(-1, "node %d has edge from nonexistent node %d", i, p)
			} else if p >= i {
				c.addf(-1, "node %d has backward edge from node %d (graph must be topologically ordered)", i, p)
			} else {
				outWant[edgeKey{p, i}]++
			}
		}
		switch nd.Kind {
		case NodeInit:
			inits++
			if len(nd.In) != 0 || len(nd.CtlIn) != 0 {
				c.addf(-1, "initiator node %d has inputs", i)
			}
		case NodeTerm:
			terms++
			if len(nd.In) != 1 {
				c.addf(-1, "terminator node %d has %d inputs, want 1", i, len(nd.In))
			}
		case NodeOp:
			c.checkOpNode(nd)
		case NodeLVLoad, NodeLVStore:
			if nd.LV < 0 || nd.LV >= numLVs {
				c.addf(-1, "node %d: live-value ID %d out of range [0,%d)", i, nd.LV, numLVs)
			}
			if len(nd.In) != 1 {
				c.addf(-1, "LV node %d has %d inputs, want 1", i, len(nd.In))
			}
		case NodeSplit:
			if len(nd.In) != 1 {
				c.addf(-1, "split node %d has %d inputs, want 1", i, len(nd.In))
			}
		case NodeJoin:
		default:
			c.addf(-1, "node %d has invalid kind %d", i, nd.Kind)
		}
		if nd.Kind != NodeInit && len(nd.Out) > MaxFanout {
			c.addf(-1, "node %d fans out to %d consumers, fabric limit is %d", i, len(nd.Out), MaxFanout)
		}
	}
	if inits != 1 || n == 0 || g.Init < 0 || g.Init >= n || g.Nodes[g.Init].Kind != NodeInit {
		c.addf(-1, "graph needs exactly one initiator at Init=%d, found %d", g.Init, inits)
	}
	if terms != 1 || g.Term < 0 || g.Term >= n || g.Nodes[g.Term].Kind != NodeTerm {
		c.addf(-1, "graph needs exactly one terminator at Term=%d, found %d", g.Term, terms)
	}
	outGot := make(map[edgeKey]int, n)
	for i, nd := range g.Nodes {
		for _, cns := range nd.Out {
			if cns < 0 || cns >= n {
				c.addf(-1, "node %d lists nonexistent consumer %d", i, cns)
				continue
			}
			outGot[edgeKey{i, cns}]++
		}
	}
	for e, want := range outWant {
		if outGot[e] != want {
			c.addf(-1, "consumer lists disagree with edges: %d->%d appears %d times in Out, %d in In/CtlIn",
				e.from, e.to, outGot[e], want)
		}
	}
	for e := range outGot {
		if outWant[e] == 0 {
			c.addf(-1, "node %d lists consumer %d but no such edge exists", e.from, e.to)
		}
	}
	return c.ds
}

func (c *diagList) checkOpNode(nd *Node) {
	op := nd.Instr.Op
	if !op.Valid() {
		c.addf(-1, "node %d has invalid opcode %v", nd.ID, op)
		return
	}
	wantIn := op.NumSrc()
	if wantIn == 0 {
		wantIn = 1 // const/param/geometry take the initiator trigger
	}
	if nd.HasPred {
		if !op.IsMemory() {
			c.addf(-1, "node %d: predication on non-memory op %v", nd.ID, op)
		}
		if nd.Pred != wantIn {
			c.addf(-1, "node %d: predicate at input %d, want %d (last)", nd.ID, nd.Pred, wantIn)
		}
		wantIn++
	}
	if len(nd.In) != wantIn {
		c.addf(-1, "node %d: %v has %d inputs, want %d", nd.ID, op, len(nd.In), wantIn)
	}
}

// diagList accumulates diagnostics for pass-level checks.
type diagList struct {
	pass   string
	kernel string
	block  int
	ds     []verify.Diagnostic
}

func (c *diagList) addf(block int, format string, args ...any) {
	if block == -1 {
		block = c.block
	}
	c.ds = append(c.ds, verify.Diagnostic{
		Pass:   c.pass,
		Kernel: c.kernel,
		Block:  block,
		Op:     -1,
		Msg:    fmt.Sprintf(format, args...),
	})
}

func regsEqual(a, b []kir.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
