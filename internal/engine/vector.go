package engine

// vector.go is the batched executor: instead of walking the whole graph once
// per thread (runThread), it runs per-node thread batches over struct-of-
// arrays operand planes. The paper's coalescing insight applied to the
// simulator itself — amortize per-node control over the whole thread vector.
//
// Bit-exactness contract. The batched path must reproduce the scalar walk's
// results AND every cycle-level metric byte for byte (the differential suite
// enforces it). Three facts make that possible:
//
//   - Placement assigns every (replica, node) a distinct physical unit, so a
//     unit's SlotAlloc/Outstanding call sequence is just "its node's threads
//     in thread order" — preserved whether the loop nest is thread-major or
//     node-major, as long as lanes stay in thread order. It also lets pure
//     nodes collapse to closed-form timing (see compileCollapse).
//     Placements that share a unit between nodes, and in-order runs, take
//     the scalar walk instead.
//   - The memory system, LVC and CVT are call-order sensitive, so nodes
//     whose value or completion time depends on a stateful hook (memory,
//     live-value and terminator nodes, and everything downstream of them)
//     are walked thread-major, reproducing the scalar hook order exactly.
//     The remaining "static" nodes — pure dataflow whose inputs are pure —
//     execute node-major over the whole wave.
//   - Thread admission (one thread per initiator per cycle, bounded by the
//     token-buffer virtual channels) consumes completion times of earlier
//     threads. Waves admit threads only while admission is *provably*
//     independent of the completion times still being computed in this
//     wave, using a per-replica critical-path lower bound (see formWave);
//     otherwise the wave flushes. Degenerate waves of one thread reduce to
//     the scalar schedule, so exactness never depends on wave size.
//
// Side-effect order on the error path is likewise identical: hooks fire in
// scalar order, so the first failing access is the same one, and the partial
// functional state it leaves behind matches the scalar walk's.

import (
	"context"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
)

// batchLanes is the operand-plane width: the maximum number of threads one
// wave executes. It bounds the SoA arena at nNodes*batchLanes entries (the
// fabric caps nNodes*replicas at the unit count, so the arena stays small)
// while leaving waves wide enough to amortize per-node dispatch.
const batchLanes = 256

// exec codes: the batched executor's predecoded node dispatch.
const (
	xInit uint8 = iota
	xTerm
	xSplit
	xJoin
	xLVLoad
	xLVStore
	xGeom
	xParam
	xMem
	xSCU
	xALU
)

// progEdge is one predecoded input edge: source node plane and token latency.
type progEdge struct {
	src int32
	lat int64
}

// dynNode is the per-replica predecoded form of a node walked per lane: unit
// id and static-input fold resolved at compile time, and the first two
// dynamic-source edges inlined so the per-lane ready computation usually
// touches no side arrays at all. Overflow edges (third
// and beyond) live in the per-replica filtered edge array at [xo:x1).
type dynNode struct {
	id     int32
	exec   uint8
	fp     bool
	store  bool
	shared bool
	op     kir.Op
	pred   int32
	in0    int32
	in1    int32
	in2    int32
	lv     int32
	imm    int32
	unit   int32
	src0   int32 // first dynamic-source edge, -1 when absent
	src1   int32 // second dynamic-source edge, -1 when absent
	xo, x1 int32 // overflow dynamic-source edges in dedges[r]
	lat    int64
	lat0   int64
	lat1   int64
	sbase  int64 // folded static-input contribution to ready (>= 0)
}

// progNode is the predecoded form of one graph node.
type progNode struct {
	id     int32
	exec   uint8
	class  kir.UnitClass
	fp     bool
	store  bool
	shared bool
	op     kir.Op
	pred   int32 // predicate operand's node ID, -1 when unpredicated
	in0    int32 // operand node IDs; absent operands point at the zero slot
	in1    int32
	in2    int32
	lv     int32
	imm    int32
	eo, e1 int32 // this node's range in the per-replica edge array
	lat    int64
}

// nodeProg is a compiled placement: predecoded nodes, flattened per-replica
// edge latencies, the static/dynamic partition, per-replica critical-path
// lower bounds, and the batched (order-independent) statistic constants.
// Programs are immutable once built and cached per placement.
type nodeProg struct {
	n       int
	nodes   []progNode
	static  []progNode   // nodes executable node-major, topological order
	dynamic []progNode   // nodes walked thread-major, topological order
	unit    []int32      // [replica*n + node] physical unit
	edges   [][]progEdge // per replica: flat edge array addressed by eOff
	eOff    []int32      // [node+1] edge offsets into edges[r]
	tcrit   []int64      // per replica: lower bound on thread end - inject

	// Collapsed-timing compilation (see compileCollapse): konst[r*n+i] is
	// node i's constant completion offset over injection in replica r, or
	// -1 when the node's timing is not collapsible; sbase/dedges/dOff carry
	// the static-fold + filtered dynamic edges for the remaining nodes; rdyn
	// is the per-replica predecoded dynamic walk; endK is the per-replica
	// folded static contribution to a lane's end time. canCollapse is false
	// when the placement shares a physical unit between nodes: then no
	// node's Alloc stream is provably private, and runBatched hands the run
	// to the scalar walk. fabric.Place never emits such a placement; the
	// check keeps hand-built ones exact.
	canCollapse bool
	konst       []int64
	sbase       []int64
	dedges      [][]progEdge
	dOff        []int32
	rdyn        [][]dynNode
	endK        []int64

	classCount ClassCounts
	fpNodes    uint64
	transfers  uint64
	hopSum     []uint64 // per replica: total token hops per thread
}

// progFor returns the cached program for a placement, compiling it on first
// use. Placements are immutable and cached by the machines (one per basic
// block), so the map stays small and steady-state runs allocate nothing.
func (e *Engine) progFor(p *fabric.Placement) (*nodeProg, error) {
	if pr, ok := e.progs[p]; ok {
		return pr, nil
	}
	pr, err := compileProg(p)
	if err != nil {
		return nil, err
	}
	if e.progs == nil {
		e.progs = make(map[*fabric.Placement]*nodeProg)
	}
	e.progs[p] = pr
	return pr, nil
}

// compileProg predecodes a placement into a nodeProg.
func compileProg(p *fabric.Placement) (*nodeProg, error) {
	g := p.Graph
	n := len(g.Nodes)
	pr := &nodeProg{
		n:      n,
		nodes:  make([]progNode, n),
		unit:   make([]int32, p.Replicas*n),
		eOff:   make([]int32, n+1),
		tcrit:  make([]int64, p.Replicas),
		hopSum: make([]uint64, p.Replicas),
	}

	staticNode := make([]bool, n)
	for _, nd := range g.Nodes {
		pn := &pr.nodes[nd.ID]
		pn.id = int32(nd.ID)
		pn.class = nd.Class()
		pn.op = nd.Instr.Op
		pn.imm = nd.Instr.Imm
		pn.pred, pn.in0, pn.in1, pn.in2 = -1, -1, -1, -1
		pn.lv = int32(nd.LV)
		if len(nd.In) > 0 {
			pn.in0 = int32(nd.In[0])
		}
		if len(nd.In) > 1 {
			pn.in1 = int32(nd.In[1])
		}
		if len(nd.In) > 2 {
			pn.in2 = int32(nd.In[2])
		}
		switch nd.Kind {
		case compile.NodeInit:
			pn.exec, pn.lat = xInit, 0
		case compile.NodeTerm:
			pn.exec, pn.lat = xTerm, 1
		case compile.NodeSplit:
			pn.exec, pn.lat = xSplit, 1
		case compile.NodeJoin:
			pn.exec, pn.lat = xJoin, 1
		case compile.NodeLVLoad:
			pn.exec = xLVLoad
		case compile.NodeLVStore:
			pn.exec = xLVStore
		case compile.NodeOp:
			op := nd.Instr.Op
			switch {
			case op.IsGeometry():
				pn.exec, pn.lat = xGeom, OpLatency(op)
			case op == kir.OpParam:
				pn.exec, pn.lat = xParam, 1
			case op.IsMemory():
				pn.exec = xMem
				pn.store = op.IsStore()
				pn.shared = op.IsShared()
				if nd.HasPred {
					pn.pred = int32(nd.In[nd.Pred])
				}
			case op.Class() == kir.ClassSCU:
				pn.exec, pn.lat = xSCU, OpLatency(op)
			default:
				pn.exec, pn.lat = xALU, OpLatency(op)
			}
			// Zero operands beyond the opcode's source count, mirroring the
			// scalar walk's operand() rule.
			if op.NumSrc() < 3 {
				pn.in2 = -1
			}
			if op.NumSrc() < 2 {
				pn.in1 = -1
			}
			if op.NumSrc() < 1 {
				pn.in0 = -1
			}
			if op.IsFloat() && pn.class == kir.ClassALU {
				pn.fp = true
			}
		default:
			return nil, errUnknownNodeKind
		}

		// Operand planes are lane-major with one extra always-zero slot at
		// index n; pointing absent operands there makes every value read
		// unconditional (the scalar operand() rule, without the branch).
		if pn.in0 < 0 {
			pn.in0 = int32(n)
		}
		if pn.in1 < 0 {
			pn.in1 = int32(n)
		}
		if pn.in2 < 0 {
			pn.in2 = int32(n)
		}

		// Static = value and timing both independent of any stateful hook:
		// a pure node kind with all inputs static. Param/Geometry values
		// come from hooks but those are pure by the Hooks contract.
		pure := false
		switch pn.exec {
		case xInit, xSplit, xJoin, xGeom, xParam, xSCU, xALU:
			pure = true
		}
		if pure {
			for _, in := range nd.In {
				pure = pure && staticNode[in]
			}
			for _, in := range nd.CtlIn {
				pure = pure && staticNode[in]
			}
		}
		staticNode[nd.ID] = pure

		pr.classCount[pn.class]++
		if pn.fp {
			pr.fpNodes++
		}
		pr.transfers += uint64(len(nd.In) + len(nd.CtlIn))
		pr.eOff[nd.ID+1] = int32(len(nd.In) + len(nd.CtlIn))
	}
	for i := 0; i < n; i++ {
		pr.eOff[i+1] += pr.eOff[i]
		pr.nodes[i].eo = pr.eOff[i]
		pr.nodes[i].e1 = pr.eOff[i+1]
	}
	// Partition into the node-major static schedule and the thread-major
	// dynamic walk, as predecoded copies so the executors' inner loops touch
	// one dense array instead of chasing IDs.
	for i := 0; i < n; i++ {
		if staticNode[i] {
			pr.static = append(pr.static, pr.nodes[i])
		} else {
			pr.dynamic = append(pr.dynamic, pr.nodes[i])
		}
	}

	// Per-replica flattened edges, hop totals, and the critical-path lower
	// bound. A node whose completion the engine computes itself (everything
	// except memory and live-value accesses, whose hooks own their timing)
	// satisfies done >= inject + dist, where dist accumulates unit latency
	// plus edge hops along engine-timed paths; tcrit is the max such dist,
	// so every thread's end >= inject + tcrit no matter what the hooks do.
	dist := make([]int64, n)
	for r := 0; r < p.Replicas; r++ {
		edges := make([]progEdge, pr.eOff[n])
		var hops uint64
		var tc int64
		for _, nd := range g.Nodes {
			o := pr.eOff[nd.ID]
			for i, in := range nd.In {
				edges[o+int32(i)] = progEdge{src: int32(in), lat: p.EdgeLat[r][nd.ID][i]}
			}
			o += int32(len(nd.In))
			for i, in := range nd.CtlIn {
				edges[o+int32(i)] = progEdge{src: int32(in), lat: p.CtlLat[r][nd.ID][i]}
			}
			hops += p.HopSum[r][nd.ID]
			pr.unit[r*n+nd.ID] = int32(p.UnitOf[r][nd.ID])

			pn := &pr.nodes[nd.ID]
			if pn.exec == xMem || pn.exec == xLVLoad || pn.exec == xLVStore {
				dist[nd.ID] = -1 // hook-timed: no engine bound
				continue
			}
			d := int64(0)
			for i, in := range nd.In {
				if dist[in] >= 0 {
					if t := dist[in] + p.EdgeLat[r][nd.ID][i]; t > d {
						d = t
					}
				}
			}
			for i, in := range nd.CtlIn {
				if dist[in] >= 0 {
					if t := dist[in] + p.CtlLat[r][nd.ID][i]; t > d {
						d = t
					}
				}
			}
			dist[nd.ID] = d + pn.lat
			if dist[nd.ID] > tc {
				tc = dist[nd.ID]
			}
		}
		pr.edges = append(pr.edges, edges)
		pr.hopSum[r] = hops
		pr.tcrit[r] = tc
	}
	compileCollapse(p, pr, staticNode)
	return pr, nil
}

// compileCollapse derives the collapsed-timing program: closed-form
// completion offsets for collapsible nodes and folded static inputs plus
// filtered dynamic edges for everything else.
//
// A node's timing collapses to done = inject + K when its completion is a
// pure function of its own injection cycle, which holds by induction when
// (a) the node is pure and engine-timed with a dedicated pipelined unit —
// not SCU (the instance pool couples lanes) and not hook-timed — and (b)
// every input is itself collapsible. Then each lane's ready is
// inject + max(0, max_e(K_src(e) + lat_e)), the per-replica injection
// sequence is strictly increasing, and a dedicated unit's SlotAlloc returns
// ready for a strictly increasing ready stream, so done = ready + lat:
// K = max(0, max_e(K_src + lat_e)) + lat, a per-replica compile-time
// constant. Collapsibility requires every (replica, node) pair to own a
// distinct physical unit — otherwise another node's allocations could land
// in the shared SlotAlloc and the closed form would diverge from the
// reference walk — so a placement with any shared unit disables collapse
// wholesale (canCollapse == false) rather than reasoning about which
// streams interleave.
func compileCollapse(p *fabric.Placement, pr *nodeProg, staticNode []bool) {
	n := pr.n
	reps := p.Replicas
	pr.konst = make([]int64, reps*n)
	pr.sbase = make([]int64, reps*n)
	pr.dOff = make([]int32, n+1)
	pr.endK = make([]int64, reps)

	pr.canCollapse = true
	seen := make(map[int32]bool, reps*n)
	for _, u := range pr.unit {
		if seen[u] {
			pr.canCollapse = false
			break
		}
		seen[u] = true
	}

	collapsible := make([]bool, n)
	for i := 0; i < n; i++ {
		pn := &pr.nodes[i]
		ok := staticNode[i] && pn.exec != xSCU
		if ok {
			for _, ed := range pr.edges[0][pn.eo:pn.e1] {
				ok = ok && collapsible[ed.src]
			}
		}
		collapsible[i] = ok
	}

	// Filtered dynamic-source edge offsets are replica-independent (edge
	// sources and collapsibility are graph properties; only latencies vary
	// per replica).
	for i := 0; i < n; i++ {
		pn := &pr.nodes[i]
		cnt := int32(0)
		for _, ed := range pr.edges[0][pn.eo:pn.e1] {
			if !collapsible[ed.src] {
				cnt++
			}
		}
		pr.dOff[i+1] = cnt
	}
	for i := 0; i < n; i++ {
		pr.dOff[i+1] += pr.dOff[i]
	}

	for r := 0; r < reps; r++ {
		dedges := make([]progEdge, pr.dOff[n])
		var endK int64
		for i := 0; i < n; i++ {
			pn := &pr.nodes[i]
			var sb int64
			o := pr.dOff[i]
			for _, ed := range pr.edges[r][pn.eo:pn.e1] {
				if collapsible[ed.src] {
					if t := pr.konst[r*n+int(ed.src)] + ed.lat; t > sb {
						sb = t
					}
				} else {
					dedges[o] = ed
					o++
				}
			}
			pr.sbase[r*n+i] = sb
			if collapsible[i] {
				pr.konst[r*n+i] = sb + pn.lat
				if pr.konst[r*n+i] > endK {
					endK = pr.konst[r*n+i]
				}
			} else {
				pr.konst[r*n+i] = -1
			}
		}
		pr.dedges = append(pr.dedges, dedges)
		pr.endK[r] = endK

		rd := make([]dynNode, len(pr.dynamic))
		for j := range pr.dynamic {
			pn := &pr.dynamic[j]
			i := int(pn.id)
			d := dynNode{
				id: pn.id, exec: pn.exec, fp: pn.fp, store: pn.store,
				shared: pn.shared, op: pn.op, pred: pn.pred,
				in0: pn.in0, in1: pn.in1, in2: pn.in2, lv: pn.lv, imm: pn.imm,
				unit: pr.unit[r*n+i], lat: pn.lat,
				src0: -1, src1: -1, sbase: pr.sbase[r*n+i],
			}
			eo, e1 := pr.dOff[i], pr.dOff[i+1]
			if e1 > eo {
				d.src0, d.lat0 = dedges[eo].src, dedges[eo].lat
				eo++
			}
			if e1 > eo {
				d.src1, d.lat1 = dedges[eo].src, dedges[eo].lat
				eo++
			}
			d.xo, d.x1 = eo, e1
			rd[j] = d
		}
		pr.rdyn = append(pr.rdyn, rd)
	}
}

// ensureLanes sizes the SoA planes and per-wave lane bookkeeping for a
// program (reusing warm backing arrays, so steady state allocates nothing).
// Planes are lane-major — lane l's values live at pvals[l*(n+1) : l*(n+1)+n]
// — so the thread-major dynamic walk touches one dense stripe per lane, just
// like the scalar walk's vals array; index n of each stripe is the shared
// always-zero operand slot, cleared here (values are reused across programs
// of different shapes, so a stale write could land anywhere).
func (e *Engine) ensureLanes(nNodes, replicas int) {
	stride := nNodes + 1
	e.pvals = resize(e.pvals, stride*batchLanes)
	e.pdone = resize(e.pdone, stride*batchLanes)
	clear(e.pvals)
	e.laneTid = resize(e.laneTid, batchLanes)
	e.laneRep = resize(e.laneRep, batchLanes)
	e.laneInj = resize(e.laneInj, batchLanes)
	e.laneEnd = resize(e.laneEnd, batchLanes)
	e.pending = resize(e.pending, replicas)
	e.pendInj = resize(e.pendInj, replicas)
	clear(e.pending)
}

// runBatched is the timed batch executor: waves of threads admitted under
// the exact scalar injection schedule, static nodes fired node-major over
// the wave with collapsed timing (done = inject + K for every collapsible
// node, see compileCollapse), dynamic nodes walked thread-major for exact
// hook order. Collapsed timing needs every node on a unit of its own; a
// placement without that runs on the scalar walk.
//
// The cancellation poll runs once per wave, which is at least as coarse as
// the scalar path's per-64-thread stride.
//
//vgiw:coarsepoll
func (e *Engine) runBatched(ctx context.Context, p *fabric.Placement, threads []int, h *Hooks, st *Stats) error {
	prog, err := e.progFor(p)
	if err != nil {
		return err
	}
	if !prog.canCollapse {
		return e.runScalar(ctx, p, threads, h, st)
	}
	e.ensureLanes(prog.n, p.Replicas)
	depth := e.grid.Config().TokenBufDepth

	base := 0
	for base < len(threads) {
		if err := ctx.Err(); err != nil {
			return err
		}
		lanes := e.formWave(prog, threads, base, p.Replicas, depth)
		for l := 0; l < lanes; l++ {
			e.laneEnd[l] += prog.endK[e.laneRep[l]]
		}
		for i := range prog.static {
			e.execStaticNode(prog, &prog.static[i], lanes, h)
		}
		for l := 0; l < lanes; l++ {
			if err := e.execDynLane(prog, l, h, st); err != nil {
				return err
			}
		}
		for l := 0; l < lanes; l++ {
			e.vcs[e.laneRep[l]].Record(e.laneEnd[l])
			if e.laneEnd[l] > st.EndCycle {
				st.EndCycle = e.laneEnd[l]
			}
		}
		clear(e.pending)
		base += lanes
	}
	addBatchedStats(prog, st, len(threads), p.Replicas)
	return nil
}

// formWave admits as many threads as the exact scalar injection schedule
// allows without knowing this wave's completion times. Per replica, the
// virtual-channel buffer (vcs) holds recorded completion times; `pending`
// counts threads admitted into this wave whose ends are not yet recorded.
// Admission at ready is exact when:
//
//   - the buffer is not full counting pending threads (the scalar Admit
//     would return ready whether or not a pending end had retired); or
//   - nothing is pending (the scalar pop-the-earliest is fully known); or
//   - every pending end provably exceeds ready AND the buffer's earliest
//     recorded end is <= the pending lower bound (so it is the global
//     earliest; ties go to the earlier-recorded entry, which is the
//     recorded one). The bound is firstPendingInject + tcrit.
//
// Otherwise the wave flushes: the admitted lanes execute, record their
// ends, and the next wave decides with full knowledge — which is exactly
// the scalar schedule.
//
//vgiw:hotpath
func (e *Engine) formWave(prog *nodeProg, threads []int, base, replicas, depth int) int {
	lanes := 0
	for j := base; j < len(threads) && lanes < batchLanes; j++ {
		r := j % replicas
		ready := e.injNext[r]
		vc := &e.vcs[r]
		vc.Retire(ready)
		inject := ready
		if vc.Len()+int(e.pending[r]) >= depth {
			if e.pending[r] == 0 {
				if m := vc.PopMin(); m > inject {
					inject = m
				}
			} else {
				lb := e.pendInj[r] + prog.tcrit[r]
				if lb <= ready || vc.Len() == 0 || vc.Min() > lb {
					break
				}
				if m := vc.PopMin(); m > inject {
					inject = m
				}
			}
		}
		e.injNext[r] = inject + 1
		if e.pending[r] == 0 {
			e.pendInj[r] = inject
		}
		e.pending[r]++
		e.laneTid[lanes] = threads[j]
		e.laneRep[lanes] = int32(r)
		e.laneInj[lanes] = inject
		e.laneEnd[lanes] = inject
		lanes++
	}
	return lanes
}

// execStaticNode fires one pure node for every lane of the wave: a timing
// pass, then the value pass (staticValues). The timing pass of a
// collapsible node reduces to its closed form — done = inject + konst,
// already folded into laneEnd and the consumers' sbase by
// runBatched/compileCollapse — so only a non-collapsible node (an SCU, or a
// consumer of one) runs it: the per-lane slot allocation in thread order,
// reading collapsed inputs through the sbase fold and the filtered edge
// list, since collapsed nodes never write their completion planes.
//
//vgiw:hotpath
func (e *Engine) execStaticNode(prog *nodeProg, pn *progNode, lanes int, h *Hooks) {
	ni := int(pn.id)
	stride := prog.n + 1

	if prog.konst[ni] < 0 {
		for l := 0; l < lanes; l++ {
			r := int(e.laneRep[l])
			dn := e.pdone[l*stride : l*stride+stride]
			ready := e.laneInj[l] + prog.sbase[r*prog.n+ni]
			for _, ed := range prog.dedges[r][prog.dOff[ni]:prog.dOff[ni+1]] {
				if t := dn[ed.src] + ed.lat; t > ready {
					ready = t
				}
			}
			unit := int(prog.unit[r*prog.n+ni])
			var start int64
			if pn.exec == xSCU {
				pool := &e.scuPool[unit]
				start = e.units[unit].Alloc(pool.Admit(ready))
				pool.Record(start + pn.lat)
			} else {
				start = e.units[unit].Alloc(ready)
			}
			done := start + pn.lat
			dn[ni] = done
			if done > e.laneEnd[l] {
				e.laneEnd[l] = done
			}
		}
	}
	e.staticValues(prog, pn, lanes, h)
}

// execDynLane walks the dynamic (hook-dependent) nodes of one lane in
// topological order — the scalar walk restricted to the nodes that touch
// stateful hooks, so every memory, live-value and branch callback fires one
// element at a time in exact thread-major order. Static inputs arrive
// pre-folded into each node's sbase constant, and the (almost always <= 2)
// remaining dynamic-source edges are inlined in the per-replica dynNode
// stream. No in-order constraint applies: in-order runs take the scalar
// walk.
//
//vgiw:hotpath
func (e *Engine) execDynLane(prog *nodeProg, l int, h *Hooks, st *Stats) error {
	tid := e.laneTid[l]
	r := int(e.laneRep[l])
	inject := e.laneInj[l]
	end := e.laneEnd[l]
	rd := prog.rdyn[r]
	dx := prog.dedges[r]
	stride := prog.n + 1
	vals := e.pvals[l*stride : l*stride+stride]
	dn := e.pdone[l*stride : l*stride+stride]

	for i := range rd {
		pn := &rd[i]
		ni := int(pn.id)
		ready := inject + pn.sbase
		if pn.src0 >= 0 {
			if t := dn[pn.src0] + pn.lat0; t > ready {
				ready = t
			}
			if pn.src1 >= 0 {
				if t := dn[pn.src1] + pn.lat1; t > ready {
					ready = t
				}
				for _, ed := range dx[pn.xo:pn.x1] {
					if t := dn[ed.src] + ed.lat; t > ready {
						ready = t
					}
				}
			}
		}
		unit := int(pn.unit)

		var done int64
		var val uint32
		switch pn.exec {
		case xTerm:
			done = e.units[unit].Alloc(ready) + 1
			if h.Branch != nil {
				h.Branch(tid, vals[pn.in0], done)
			}
		case xSplit:
			done = e.units[unit].Alloc(ready) + 1
			val = vals[pn.in0]
		case xJoin:
			done = e.units[unit].Alloc(ready) + 1
		case xLVLoad:
			start := e.units[unit].Alloc(ready)
			val, done = h.AccessLV(int(pn.lv), tid, false, 0, start)
		case xLVStore:
			start := e.units[unit].Alloc(ready)
			_, done = h.AccessLV(int(pn.lv), tid, true, vals[pn.in0], start)
		case xMem:
			if pn.pred >= 0 && vals[pn.pred] == 0 {
				st.SkippedMemOps++
				done = e.units[unit].Alloc(ready) + 1
			} else {
				addr := int64(int32(vals[pn.in0]) + pn.imm)
				var value uint32
				if pn.store {
					value = vals[pn.in1]
				}
				space := SpaceGlobal
				if pn.shared {
					space = SpaceShared
					st.SharedAccesses++
				} else {
					st.GlobalAccesses++
				}
				start := e.units[unit].Alloc(e.resBuf[unit].Admit(ready))
				word, d, err := h.AccessMem(space, addr, pn.store, value, tid, start)
				if err != nil {
					return err
				}
				e.resBuf[unit].Record(d)
				val, done = word, d
			}
		case xSCU:
			pool := &e.scuPool[unit]
			start := e.units[unit].Alloc(pool.Admit(ready))
			pool.Record(start + pn.lat)
			done = start + pn.lat
			val = kir.Eval(pn.op, vals[pn.in0], vals[pn.in1], vals[pn.in2], pn.imm)
		default: // xALU
			done = e.units[unit].Alloc(ready) + pn.lat
			val = kir.Eval(pn.op, vals[pn.in0], vals[pn.in1], vals[pn.in2], pn.imm)
		}

		vals[ni] = val
		dn[ni] = done
		if done > end {
			end = done
		}
	}
	e.laneEnd[l] = end
	return nil
}

// addBatchedStats folds in the order-independent per-thread constants: node
// executions by class, FP ops and token hops/transfers are all
// unconditional per (node, thread), so totals are per-node constants times
// thread counts — exactly what the scalar walk accumulates one increment at
// a time.
//
//vgiw:hotpath
func addBatchedStats(prog *nodeProg, st *Stats, nThreads, replicas int) {
	t := uint64(nThreads)
	for cl := range prog.classCount {
		st.Ops[cl] += prog.classCount[cl] * t
	}
	st.FPOps += prog.fpNodes * t
	st.TokenTransfers += prog.transfers * t
	for r := 0; r < replicas; r++ {
		st.TokenHops += prog.hopSum[r] * replicaThreads(nThreads, replicas, r)
	}
}

// runFast is the functional-only executor (Options.Fast): identical results
// and op counts, no timing. Static values fire node-major over full batches;
// dynamic nodes are walked thread-major so memory, live-value and branch
// side effects land in exact scalar order (which makes the results bit-exact
// even for kernels with cross-thread memory dependences).
//
// The cancellation poll runs once per batchLanes threads.
//
//vgiw:coarsepoll
func (e *Engine) runFast(ctx context.Context, p *fabric.Placement, threads []int, startCycle int64, h *Hooks, st *Stats) error {
	prog, err := e.progFor(p)
	if err != nil {
		return err
	}
	e.ensureLanes(prog.n, p.Replicas)

	for base := 0; base < len(threads); base += batchLanes {
		if err := ctx.Err(); err != nil {
			return err
		}
		lanes := len(threads) - base
		if lanes > batchLanes {
			lanes = batchLanes
		}
		copy(e.laneTid[:lanes], threads[base:base+lanes])
		for i := range prog.static {
			e.staticValues(prog, &prog.static[i], lanes, h)
		}
		for l := 0; l < lanes; l++ {
			if err := e.fastDynLane(prog, l, startCycle, h, st); err != nil {
				return err
			}
		}
	}
	addBatchedStats(prog, st, len(threads), p.Replicas)
	return nil
}

// staticValues is the value pass of one pure node over a batch of lanes,
// shared by the batched and fast executors: node-major, with no timing.
//
//vgiw:hotpath
func (e *Engine) staticValues(prog *nodeProg, pn *progNode, lanes int, h *Hooks) {
	ni := int(pn.id)
	stride := prog.n + 1
	switch pn.exec {
	case xInit:
		for l := 0; l < lanes; l++ {
			e.pvals[l*stride+ni] = uint32(e.laneTid[l])
		}
	case xParam:
		v := h.Param(int(pn.imm))
		for l := 0; l < lanes; l++ {
			e.pvals[l*stride+ni] = v
		}
	case xGeom:
		op := pn.op
		for l := 0; l < lanes; l++ {
			e.pvals[l*stride+ni] = h.Geometry(op, e.laneTid[l])
		}
	case xSplit:
		src := int(pn.in0)
		for l := 0; l < lanes; l++ {
			e.pvals[l*stride+ni] = e.pvals[l*stride+src]
		}
	case xJoin:
		for l := 0; l < lanes; l++ {
			e.pvals[l*stride+ni] = 0
		}
	default: // xALU, xSCU: branch-free Eval over the lane stripes
		a, b, c := int(pn.in0), int(pn.in1), int(pn.in2)
		op, imm := pn.op, pn.imm
		for l := 0; l < lanes; l++ {
			vals := e.pvals[l*stride : l*stride+stride]
			vals[ni] = kir.Eval(op, vals[a], vals[b], vals[c], imm)
		}
	}
}

// fastDynLane walks one lane's dynamic nodes functionally, through the
// fast hook variants.
//
//vgiw:hotpath
func (e *Engine) fastDynLane(prog *nodeProg, l int, now int64, h *Hooks, st *Stats) error {
	tid := e.laneTid[l]
	stride := prog.n + 1
	vals := e.pvals[l*stride : l*stride+stride]
	for i := range prog.dynamic {
		pn := &prog.dynamic[i]
		ni := int(pn.id)
		var val uint32
		switch pn.exec {
		case xTerm:
			if h.Branch != nil {
				h.Branch(tid, vals[pn.in0], now)
			}
		case xSplit:
			val = vals[pn.in0]
		case xJoin:
		case xLVLoad:
			val = h.AccessLVFast(int(pn.lv), tid, false, 0)
		case xLVStore:
			h.AccessLVFast(int(pn.lv), tid, true, vals[pn.in0])
		case xMem:
			if pn.pred >= 0 && vals[pn.pred] == 0 {
				st.SkippedMemOps++
				break
			}
			addr := int64(int32(vals[pn.in0]) + pn.imm)
			var value uint32
			if pn.store {
				value = vals[pn.in1]
			}
			space := SpaceGlobal
			if pn.shared {
				space = SpaceShared
				st.SharedAccesses++
			} else {
				st.GlobalAccesses++
			}
			word, err := h.AccessMemFast(space, addr, pn.store, value, tid)
			if err != nil {
				return err
			}
			val = word
		default: // xALU, xSCU
			val = kir.Eval(pn.op, vals[pn.in0], vals[pn.in1], vals[pn.in2], pn.imm)
		}
		vals[ni] = val
	}
	return nil
}
