package compile

import (
	"fmt"

	"vgiw/internal/kir"
	"vgiw/internal/verify"
)

// NodeKind discriminates dataflow-graph nodes. Besides the kernel's own
// instructions, the compiler inserts the structural nodes of §3.5: a thread
// initiator and terminator (CVUs), live-value load/store nodes (LVUs), join
// nodes that preserve per-thread memory ordering, and split nodes that extend
// fanout beyond the interconnect limit (both SJUs).
type NodeKind uint8

const (
	NodeInit    NodeKind = iota // thread initiator CVU
	NodeTerm                    // thread terminator CVU (executes the branch)
	NodeOp                      // a kernel instruction
	NodeLVLoad                  // LVU: load a live value from the LVC
	NodeLVStore                 // LVU: store a live value to the LVC
	NodeJoin                    // SJU: collect control tokens (memory ordering)
	NodeSplit                   // SJU: replicate a token to extend fanout
)

func (k NodeKind) String() string {
	switch k {
	case NodeInit:
		return "init"
	case NodeTerm:
		return "term"
	case NodeOp:
		return "op"
	case NodeLVLoad:
		return "lvload"
	case NodeLVStore:
		return "lvstore"
	case NodeJoin:
		return "join"
	case NodeSplit:
		return "split"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// MaxFanout is the number of direct consumers a node can feed before the
// compiler inserts split nodes (the switch fabric connects each unit to a
// limited neighborhood, §3.5).
const MaxFanout = 4

// Node is one vertex of a basic block's dataflow graph.
type Node struct {
	ID    int
	Kind  NodeKind
	Instr kir.Instr // valid for NodeOp
	Reg   kir.Reg   // the register carried by LV nodes / split of a value
	LV    int       // live-value ID for LV nodes

	// In lists data-edge producers. For NodeOp, In[i] produces operand i
	// (memory nodes: In[0] = address, In[1] = store value). Nodes without
	// register operands (const, param, geometry, lvload) take a single
	// trigger edge from the initiator, following the dataflow firing rule.
	In []int
	// CtlIn lists control-token producers that must fire before this node
	// (per-thread memory ordering, §3.5's join discussion).
	CtlIn []int
	// Out is the computed consumer list (data and control edges).
	Out []int

	// HasPred marks predicated execution (SGMF if-conversion only): when
	// the predicate operand — In[Pred], always the last input — yields 0
	// for a thread, a memory node skips its access (and a load yields 0).
	// The predicate rides a normal data edge so firing still follows the
	// dataflow rule.
	HasPred bool
	Pred    int
}

// Class reports the functional-unit class the node occupies on the fabric.
func (n *Node) Class() kir.UnitClass {
	switch n.Kind {
	case NodeInit, NodeTerm:
		return kir.ClassCVU
	case NodeLVLoad, NodeLVStore:
		return kir.ClassLVU
	case NodeJoin, NodeSplit:
		return kir.ClassSJU
	default:
		return n.Instr.Op.Class()
	}
}

// BlockDFG is the dataflow graph ("graph instruction word") of one basic
// block, ready for placement on the MT-CGRF.
type BlockDFG struct {
	BlockID int
	Nodes   []*Node
	Init    int // initiator node ID
	Term    int // terminator node ID
}

// ClassCounts tallies how many units of each class the graph needs.
func (g *BlockDFG) ClassCounts() map[kir.UnitClass]int {
	m := make(map[kir.UnitClass]int)
	for _, n := range g.Nodes {
		m[n.Class()]++
	}
	return m
}

// CriticalPathLen returns the longest path length (in nodes) through the
// graph, a lower bound on per-thread latency.
func (g *BlockDFG) CriticalPathLen() int {
	depth := make([]int, len(g.Nodes))
	longest := 0
	// Nodes are created in topological order (producers precede
	// consumers), so a single forward sweep suffices.
	for _, n := range g.Nodes {
		d := 1
		for _, p := range append(append([]int(nil), n.In...), n.CtlIn...) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[n.ID] = d
		if d > longest {
			longest = d
		}
	}
	return longest
}

// BuildBlockDFG converts basic block bi of the kernel into its dataflow
// graph, using the kernel-wide live-value allocation.
func BuildBlockDFG(k *kir.Kernel, lv *LiveValues, bi int) (*BlockDFG, error) {
	b := k.Blocks[bi]
	g := &BlockDFG{BlockID: bi}
	newNode := func(n *Node) int {
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		return n.ID
	}

	g.Init = newNode(&Node{Kind: NodeInit})

	// Live-value loads come first; they fire off the initiator's trigger.
	defOf := make([]int, k.NumRegs) // register -> producing node, -1 for none
	for r := range defOf {
		defOf[r] = -1
	}
	for _, r := range lv.Loads[bi] {
		id := newNode(&Node{Kind: NodeLVLoad, Reg: r, LV: lv.IDOf[r], In: []int{g.Init}})
		defOf[r] = id
	}

	// Memory-ordering state, tracked separately per address space.
	type memState struct {
		lastStore       int   // node ID of the last store, -1 if none
		loadsSinceStore []int // loads issued after lastStore
	}
	global := memState{lastStore: -1}
	shared := memState{lastStore: -1}

	for _, in := range b.Instrs {
		n := &Node{Kind: NodeOp, Instr: in}
		nsrc := in.Op.NumSrc()
		if nsrc == 0 {
			// const/param/geometry: triggered by the initiator.
			n.In = []int{g.Init}
		} else {
			for i := 0; i < nsrc; i++ {
				r := in.Src[i]
				p := defOf[r]
				if p < 0 {
					return nil, fmt.Errorf("compile: kernel %s block %d (%s): r%d used before definition and not live-in",
						k.Name, bi, b.Label, r)
				}
				n.In = append(n.In, p)
			}
		}
		if in.Op.IsMemory() {
			ms := &global
			if in.Op.IsShared() {
				ms = &shared
			}
			if in.Op.IsStore() {
				// WAW + WAR: wait for the previous store and every load
				// issued since it.
				if ms.lastStore >= 0 {
					n.CtlIn = append(n.CtlIn, ms.lastStore)
				}
				n.CtlIn = append(n.CtlIn, ms.loadsSinceStore...)
			} else if ms.lastStore >= 0 {
				// RAW: wait for the previous store.
				n.CtlIn = append(n.CtlIn, ms.lastStore)
			}
			id := newNode(n)
			if in.Op.IsStore() {
				ms.lastStore = id
				ms.loadsSinceStore = nil
			} else {
				ms.loadsSinceStore = append(ms.loadsSinceStore, id)
			}
			if in.Op.HasDst() {
				defOf[in.Dst] = id
			}
			continue
		}
		id := newNode(n)
		if in.Op.HasDst() {
			defOf[in.Dst] = id
		}
	}

	// Live-value stores for definitions that are live-out.
	for _, r := range lv.Stores[bi] {
		p := defOf[r]
		if p < 0 || g.Nodes[p].Kind == NodeLVLoad {
			// The register is live-out but this block only passes it
			// through (it was loaded, not redefined). No store needed:
			// the LVC still holds it.
			continue
		}
		newNode(&Node{Kind: NodeLVStore, Reg: r, LV: lv.IDOf[r], In: []int{p}})
	}

	// Terminator.
	term := &Node{Kind: NodeTerm}
	if b.Term.Kind == kir.TermBranch {
		p := defOf[b.Term.Cond]
		if p < 0 {
			return nil, fmt.Errorf("compile: kernel %s block %d (%s): branch condition r%d undefined",
				k.Name, bi, b.Label, b.Term.Cond)
		}
		term.In = []int{p}
	} else {
		term.In = []int{g.Init}
	}
	g.Term = newNode(term)

	g.computeOut()
	g.insertSplits()
	g.normalize()
	return g, nil
}

// normalize renumbers nodes in topological order (producers before
// consumers). Split insertion appends nodes at the end even though they feed
// earlier consumers; the rest of the pipeline (critical-path computation,
// the execution engines) relies on forward-only edges.
func (g *BlockDFG) normalize() {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, nd := range g.Nodes {
		indeg[nd.ID] = len(nd.In) + len(nd.CtlIn)
	}
	g.computeOut()
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for _, nd := range g.Nodes {
		if indeg[nd.ID] == 0 {
			queue = append(queue, nd.ID)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, c := range g.Nodes[id].Out {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("compile: DFG for block %d has a cycle", g.BlockID))
	}
	remap := make([]int, n)
	for newID, oldID := range order {
		remap[oldID] = newID
	}
	nodes := make([]*Node, n)
	for _, nd := range g.Nodes {
		id := remap[nd.ID]
		nd.ID = id
		for i := range nd.In {
			nd.In[i] = remap[nd.In[i]]
		}
		for i := range nd.CtlIn {
			nd.CtlIn[i] = remap[nd.CtlIn[i]]
		}
		nodes[id] = nd
	}
	g.Nodes = nodes
	g.Init = remap[g.Init]
	g.Term = remap[g.Term]
	g.computeOut()
}

// computeOut rebuilds the consumer lists from In/CtlIn.
func (g *BlockDFG) computeOut() {
	for _, n := range g.Nodes {
		n.Out = nil
	}
	for _, n := range g.Nodes {
		for _, p := range n.In {
			g.Nodes[p].Out = append(g.Nodes[p].Out, n.ID)
		}
		for _, p := range n.CtlIn {
			g.Nodes[p].Out = append(g.Nodes[p].Out, n.ID)
		}
	}
}

// insertSplits rewrites high-fanout producers through trees of split nodes so
// no node feeds more than MaxFanout consumers. The initiator is exempt: its
// trigger distribution is part of the batch broadcast (§3.5 describes
// splits for data fanout).
func (g *BlockDFG) insertSplits() {
	for idx := 0; idx < len(g.Nodes); idx++ {
		n := g.Nodes[idx]
		if n.Kind == NodeInit || len(n.Out) <= MaxFanout {
			continue
		}
		consumers := append([]int(nil), n.Out...)
		// Build split nodes, each serving up to MaxFanout consumers.
		var splits []int
		for i := 0; i < len(consumers); i += MaxFanout {
			end := i + MaxFanout
			if end > len(consumers) {
				end = len(consumers)
			}
			s := &Node{ID: len(g.Nodes), Kind: NodeSplit, Reg: n.Reg, In: []int{n.ID}}
			g.Nodes = append(g.Nodes, s)
			splits = append(splits, s.ID)
			for _, c := range consumers[i:end] {
				replaceInput(g.Nodes[c], n.ID, s.ID)
			}
		}
		// If the split layer itself exceeds the fanout limit, the loop
		// will process the producer again on a later pass; with MaxFanout
		// consumers per split, the producer now feeds len(splits) nodes.
		n.Out = splits
		if len(splits) > MaxFanout {
			idx-- // reprocess n to add another split layer
		}
	}
}

func replaceInput(n *Node, old, new int) {
	for i, p := range n.In {
		if p == old {
			n.In[i] = new
			return
		}
	}
	for i, p := range n.CtlIn {
		if p == old {
			n.CtlIn[i] = new
			return
		}
	}
}

// CompiledKernel bundles a scheduled kernel with its analysis results and
// per-block dataflow graphs — everything the VGIW machine needs to run.
type CompiledKernel struct {
	Kernel *kir.Kernel
	LV     *LiveValues
	DFGs   []*BlockDFG
	// IPDom holds immediate post-dominators for the SIMT baseline.
	IPDom []int
}

// Compile schedules the kernel's blocks, allocates live values, and builds
// every block's dataflow graph. Under Checked, the verifier runs after each
// pass — rematerialization, scheduling, live-value allocation, graph
// construction — and the returned error names the pass that broke the kernel.
func Compile(k *kir.Kernel, opts ...Option) (*CompiledKernel, error) {
	ck, _, err := buildOptions(opts).compile(k, nil)
	return ck, err
}

// compile runs the pipeline and builds the block graphs in block order. A
// non-nil fits stops it at the first graph fits rejects: it then returns
// that block's index and no kernel, and builds neither the later graphs nor
// the post-dominators.
func (o options) compile(k *kir.Kernel, fits func(*BlockDFG) bool) (*CompiledKernel, int, error) {
	if err := k.Validate(); err != nil {
		return nil, -1, err
	}
	if err := o.checkKernel("input", k, verify.Source); err != nil {
		return nil, -1, err
	}
	Rematerialize(k)
	if err := o.checkKernel("remat", k, verify.Source); err != nil {
		return nil, -1, err
	}
	if _, err := ScheduleBlocks(k); err != nil {
		return nil, -1, err
	}
	if err := o.checkKernel("schedule", k, verify.Compiled); err != nil {
		return nil, -1, err
	}
	lv := AllocateLiveValues(k)
	if o.checked {
		if err := verify.Join(VerifyLiveValues("liveness", k, lv)); err != nil {
			return nil, -1, fmt.Errorf("compile: liveness: %w", err)
		}
	}
	dfgs := make([]*BlockDFG, len(k.Blocks))
	for bi := range k.Blocks {
		g, err := BuildBlockDFG(k, lv, bi)
		if err != nil {
			return nil, -1, err
		}
		if o.checked {
			if err := verify.Join(VerifyGraph("dfg", g, lv.NumIDs)); err != nil {
				return nil, -1, fmt.Errorf("compile: dfg: %w", err)
			}
		}
		if fits != nil && !fits(g) {
			return nil, bi, nil
		}
		dfgs[bi] = g
	}
	return &CompiledKernel{Kernel: k, LV: lv, DFGs: dfgs, IPDom: ImmPostDoms(k)}, -1, nil
}
