// Package engine executes a placed dataflow graph for a vector of threads,
// producing both functional results and cycle-level timing. It models the
// MT-CGRF execution semantics of §3.5:
//
//   - one thread injected per initiator CVU per cycle (each basic-block
//     replica has its own initiator), bounded by the token-buffer depth
//     (virtual execution channels) of the units;
//   - every functional unit accepts one token set per cycle and completes it
//     OpLatency cycles later; a special compute unit (SCU) holds enough
//     instances of its non-pipelined circuits to cover their latency, so it
//     too takes a new operation every cycle;
//   - load/store units expose reservation buffers that bound outstanding
//     memory operations and let unblocked threads overtake stalled ones
//     (dynamic, tagged-token dataflow);
//   - tokens travel the interconnect with per-edge hop latencies from the
//     placement.
//
// The engine is shared by the VGIW core (per-block graphs) and the SGMF
// baseline (one whole-kernel graph).
package engine

import (
	"context"
	"errors"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// Space distinguishes memory address spaces.
type Space uint8

const (
	SpaceGlobal Space = iota
	SpaceShared
)

// Hooks supplies the environment a graph executes in: memory, live values,
// launch geometry, and branch-outcome reporting. The engine itself owns no
// state between calls.
//
// Param and Geometry must be pure: their results may depend only on their
// arguments (and the launch they close over), never on call order or count.
// The batch executor exploits this — it resolves a Param once per node
// rather than once per thread, and evaluates geometry and parameter values
// node-major rather than thread-major. AccessMem, AccessLV and Branch carry
// the run's side effects: each call is one element (one thread's access or
// terminator), and the calls arrive in exact thread-major order (all of
// thread t's calls before any of thread t+1's), whichever executor runs.
// That holds on the error path too: a run stops at the first failing call,
// and the timed executors (scalar and batched) have made identical calls up
// to it.
type Hooks struct {
	// Param returns scalar launch parameter i.
	Param func(i int) uint32
	// Geometry resolves a geometry opcode for a thread.
	Geometry func(op kir.Op, tid int) uint32
	// AccessMem performs a data-memory access: functional effect plus
	// timing. For loads value is ignored and the loaded word returned;
	// for stores the returned word is ignored. done is the completion
	// cycle given issue at now.
	AccessMem func(space Space, addr int64, write bool, value uint32, tid int, now int64) (word uint32, done int64, err error)
	// AccessLV reads or writes live value lv for a thread through the LVC.
	// Unused by SGMF graphs (which have no LV nodes).
	AccessLV func(lv int, tid int, write bool, value uint32, now int64) (word uint32, done int64)
	// Branch reports a thread's terminator outcome so the caller can update
	// the control vector table. cond is meaningful only for TermBranch; now
	// is the cycle the terminator CVU delivers its batch packet, which is
	// what timestamps the CVT enqueue trace events.
	Branch func(tid int, cond uint32, now int64)
	// AccessMemFast is the functional-only variant of AccessMem used by
	// Options.Fast: same functional effect and error behaviour, no timing.
	// Fast mode calls the two fast twins only, so it needs both set (it
	// needs AccessLVFast only for graphs with live-value nodes).
	AccessMemFast func(space Space, addr int64, write bool, value uint32, tid int) (word uint32, err error)
	// AccessLVFast mirrors AccessMemFast for live-value accesses.
	AccessLVFast func(lv int, tid int, write bool, value uint32) uint32
	// TraceTrack attributes this run's engine-level trace events (node
	// firings) to one track of Options.Trace. Zero means the sink's default
	// track; callers running several graphs set a per-run track.
	TraceTrack trace.TrackID
}

// Options tune engine behaviour (used by ablation studies).
type Options struct {
	// InOrderThreads disables out-of-order thread overtaking: every node
	// processes threads in injection order (ablation for the reservation
	// buffers' dynamic dataflow). In-order runs take the scalar walk: the
	// previous thread's completion at every node couples threads in a way
	// the batched executor's closed-form timing does not model.
	InOrderThreads bool
	// Profile fills Stats.UnitIssues with each physical unit's executions.
	// Fast runs report no occupancy.
	Profile bool
	// Trace, when non-nil, receives per-node firing events (trace.CatEngine)
	// on the track named by Hooks.TraceTrack. A nil sink (or one whose
	// filter excludes CatEngine) keeps the hot path allocation-free — the
	// contract BenchmarkEngineHotPath enforces. A sink that *does* enable
	// CatEngine forces the scalar executor, which emits firing events in
	// the reference per-thread order.
	Trace *trace.Sink
	// Scalar forces the reference per-thread graph walk (runScalar) instead
	// of the batched executor. The batched path is bit-exact with the
	// scalar one — results, every cycle-level metric, and the hook call
	// sequence, error path included — which the differential suite
	// enforces; Scalar exists as the oracle escape hatch, not a semantic
	// knob. In-order runs, CatEngine tracing and placements that share a
	// unit between nodes take the scalar walk whatever Scalar says.
	Scalar bool
	// Fast runs the functional-only executor: identical results and op
	// counts, but no cycle or occupancy accounting (EndCycle == StartCycle,
	// and the memory system's timing state is never touched). For CI
	// crosschecks, fuzzing throughput, and functional-only sweeps. Ignored
	// (with full timing restored) when CatEngine tracing is enabled, since
	// firing events need cycles.
	Fast bool
}

// ClassCounts is a dense per-unit-class counter array indexed by
// kir.UnitClass. The engine increments it on every node execution, so it is
// an array rather than a map to keep the hot path allocation-free.
type ClassCounts [kir.NumUnitClasses]uint64

// Counts is the record of the fabric's events that the energy model prices.
// The engine fills one per vector run, and the VGIW and SGMF results embed
// their runs' totals, so each counter is declared, summed and priced once.
type Counts struct {
	// Ops counts node executions by unit class (per thread executions).
	Ops ClassCounts
	// FPOps counts floating-point ALU-class node executions (the energy
	// model prices FP lanes above integer lanes).
	FPOps uint64
	// TokenHops is the total distance traveled by data/control tokens.
	TokenHops uint64
	// TokenTransfers counts individual token deliveries.
	TokenTransfers uint64
	// GlobalAccesses/SharedAccesses count memory operations issued
	// (predicated-off SGMF accesses are excluded).
	GlobalAccesses, SharedAccesses uint64
	// SkippedMemOps counts predicated-off memory operations (SGMF).
	SkippedMemOps uint64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	for cl, n := range o.Ops {
		c.Ops[cl] += n
	}
	c.FPOps += o.FPOps
	c.TokenHops += o.TokenHops
	c.TokenTransfers += o.TokenTransfers
	c.GlobalAccesses += o.GlobalAccesses
	c.SharedAccesses += o.SharedAccesses
	c.SkippedMemOps += o.SkippedMemOps
}

// Stats aggregates the events of one vector execution.
type Stats struct {
	StartCycle int64
	EndCycle   int64
	Counts
	// UnitIssues counts executions per physical unit ID. Profile only.
	UnitIssues []uint64
}

// Cycles is the wall-clock cycle count of the vector execution.
func (s *Stats) Cycles() int64 { return s.EndCycle - s.StartCycle }

// OpLatency is the per-opcode execution latency table shared by all
// simulators (the SIMT baseline uses it too, so the comparison is apples to
// apples).
func OpLatency(op kir.Op) int64 {
	switch op {
	case kir.OpMul:
		return 3
	case kir.OpFAdd, kir.OpFSub, kir.OpFMul, kir.OpFMin, kir.OpFMax, kir.OpFFloor,
		kir.OpFNeg, kir.OpFAbs:
		return 4
	case kir.OpFSetEQ, kir.OpFSetNE, kir.OpFSetLT, kir.OpFSetLE:
		return 4
	case kir.OpI2F, kir.OpF2I:
		return 2
	case kir.OpDiv, kir.OpRem, kir.OpFDiv, kir.OpFSqrt:
		return 16
	case kir.OpFExp, kir.OpFLog:
		return 20
	default:
		return 1
	}
}

// Engine executes placed graphs. Reusable across calls; not safe for
// concurrent use. All per-run scratch lives in a per-engine arena that is
// resized (never reallocated once warm) between runs, so steady-state token
// execution allocates nothing.
type Engine struct {
	grid *fabric.Grid
	opt  Options

	// per-run scratch, sized to the current graph
	vals     []uint32
	done     []int64
	units    []mem.SlotAlloc   // per-unit issue slots (1 initiation/cycle)
	resBuf   []mem.Outstanding // per-unit LDST reservation buffers (dense by unit id)
	lastDone []int64           // [replica*nNodes+node] completion of previous thread
	nNodes   int               // stride of lastDone

	// per-run injection bookkeeping, reused across runs
	injNext []int64
	vcs     []mem.Outstanding // per-replica virtual-channel occupancy

	// batch-executor state (vector.go): compiled node programs keyed by
	// placement identity (placements are immutable and cached by the
	// machines, so the map stays small and steady-state runs hit it), the
	// SoA operand planes, and the per-wave lane bookkeeping.
	progs   map[*fabric.Placement]*nodeProg
	pvals   []uint32 // [lane*(nNodes+1)+node] value plane
	pdone   []int64  // [lane*(nNodes+1)+node] completion plane (dynamic nodes)
	laneTid []int
	laneRep []int32
	laneInj []int64
	laneEnd []int64
	pending []int32 // per-replica threads admitted but not yet recorded
	pendInj []int64 // per-replica inject cycle of the first pending thread
}

// New creates an engine bound to a grid.
func New(grid *fabric.Grid, opt Options) *Engine {
	return &Engine{grid: grid, opt: opt}
}

// Release returns the units' slot rings to their pool. Call once a run is
// finished; the engine stays usable and takes rings again as it needs them.
func (e *Engine) Release() {
	for i := range e.units {
		e.units[i].Release()
	}
}

// cancelCheckStride is how many threads the engine streams between
// ctx.Err() polls. A poll is two atomic-ish loads, so the stride only needs
// to be large enough to keep it off the per-token path; 64 threads bound the
// cancellation latency to well under a millisecond of host time even on the
// largest graphs.
const cancelCheckStride = 64

// RunVectorCtx streams the given threads through the placement, starting at
// startCycle (reconfiguration cost is the caller's concern). It returns the
// execution statistics; the graph's side effects happen through the hooks.
// The thread loop polls ctx every cancelCheckStride threads and returns
// ctx.Err() once the context is done, so a caller's deadline or cancel
// preempts a running vector rather than waiting for it to drain.
func (e *Engine) RunVectorCtx(ctx context.Context, p *fabric.Placement, threads []int, startCycle int64, h *Hooks) (Stats, error) {
	cfg := e.grid.Config()
	st := Stats{StartCycle: startCycle, EndCycle: startCycle}
	if len(threads) == 0 {
		return st, nil
	}

	// Executor selection: CatEngine tracing pins the scalar reference walk
	// (its per-thread order is what the firing-event stream documents);
	// otherwise Fast takes the functional-only path, Scalar and in-order
	// runs the scalar walk, and everything else the batched path, which is
	// bit-exact with scalar.
	traceEngine := e.opt.Trace.Enabled(trace.CatEngine)
	if e.opt.Fast && !traceEngine {
		if err := e.runFast(ctx, p, threads, startCycle, h, &st); err != nil {
			return Stats{}, err
		}
		return st, nil
	}

	// Reset per-run unit state (the grid is reset between blocks, §3.2).
	// The scratch arrays keep their backing storage across runs.
	nUnits := e.grid.NumUnits()
	if cap(e.units) < nUnits {
		e.units = make([]mem.SlotAlloc, nUnits)
		e.resBuf = make([]mem.Outstanding, nUnits)
	}
	e.units = e.units[:nUnits]
	e.resBuf = e.resBuf[:nUnits]
	for i := range e.units {
		e.units[i].Reset()
		e.resBuf[i].Reset(cfg.ReservationSlots)
	}

	// Per-replica injection bookkeeping: the initiator CVU injects one
	// thread per cycle, and a thread needs a free virtual channel (token
	// buffer entry). Channels free as their threads complete — in any
	// order, so threads stalled on memory do not hold others back.
	e.injNext = resize(e.injNext, p.Replicas)
	if cap(e.vcs) < p.Replicas {
		e.vcs = make([]mem.Outstanding, p.Replicas)
	}
	e.vcs = e.vcs[:p.Replicas]
	for r := range e.vcs {
		e.injNext[r] = startCycle
		e.vcs[r].Reset(cfg.TokenBufDepth)
	}

	var err error
	if e.opt.Scalar || e.opt.InOrderThreads || traceEngine {
		err = e.runScalar(ctx, p, threads, h, &st)
	} else {
		err = e.runBatched(ctx, p, threads, h, &st)
	}
	if err != nil {
		return Stats{}, err
	}
	if e.opt.Profile {
		// Every node fires once per thread on its replica's unit.
		st.UnitIssues = make([]uint64, nUnits)
		for r := 0; r < p.Replicas; r++ {
			n := replicaThreads(len(threads), p.Replicas, r)
			for _, u := range p.UnitOf[r] {
				st.UnitIssues[u] += n
			}
		}
	}
	return st, nil
}

// replicaThreads is how many of nThreads threads replica r runs: thread j
// runs on replica j mod replicas.
func replicaThreads(nThreads, replicas, r int) uint64 {
	n := uint64(nThreads / replicas)
	if r < nThreads%replicas {
		n++
	}
	return n
}

// runScalar is the reference executor: one whole-graph walk (runThread) per
// thread, threads in injection order. It is the exactness oracle, the
// CatEngine tracing path and the in-order ablation.
func (e *Engine) runScalar(ctx context.Context, p *fabric.Placement, threads []int, h *Hooks, st *Stats) error {
	nNodes := len(p.Graph.Nodes)
	e.vals = resize(e.vals, nNodes)
	e.done = resize(e.done, nNodes)
	e.nNodes = nNodes
	e.lastDone = resize(e.lastDone, p.Replicas*nNodes)
	clear(e.lastDone)

	for j, tid := range threads {
		if j%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r := j % p.Replicas
		inject := e.vcs[r].Admit(e.injNext[r])
		if inject < e.injNext[r] {
			inject = e.injNext[r]
		}
		e.injNext[r] = inject + 1

		end, err := e.runThread(p, r, tid, inject, h, st)
		if err != nil {
			return err
		}
		e.vcs[r].Record(end)
		if end > st.EndCycle {
			st.EndCycle = end
		}
	}
	return nil
}

// errUnknownNodeKind is the per-token path's only error of its own; a
// static value because runThread must not allocate (the verifier rejects
// graphs with unknown kinds long before they reach the engine).
var errUnknownNodeKind = errors.New("engine: unknown node kind")

// runThread executes every node of the graph for one thread and returns the
// thread's completion cycle.
//
//vgiw:hotpath
func (e *Engine) runThread(p *fabric.Placement, r, tid int, inject int64, h *Hooks, st *Stats) (int64, error) {
	g := p.Graph
	unitOf := p.UnitOf[r]
	threadEnd := inject

	for _, n := range g.Nodes {
		unit := unitOf[n.ID]

		// Dataflow firing rule: all operands (and control tokens) present.
		ready := inject
		for i, in := range n.In {
			if t := e.done[in] + p.EdgeLat[r][n.ID][i]; t > ready {
				ready = t
			}
		}
		for i, in := range n.CtlIn {
			if t := e.done[in] + p.CtlLat[r][n.ID][i]; t > ready {
				ready = t
			}
		}
		st.TokenHops += p.HopSum[r][n.ID]
		st.TokenTransfers += uint64(len(n.In) + len(n.CtlIn))

		if e.opt.InOrderThreads {
			if t := e.lastDone[r*e.nNodes+n.ID]; t > ready {
				ready = t
			}
		}

		var done int64
		var val uint32
		var err error
		switch n.Kind {
		case compile.NodeInit:
			done, val = inject, uint32(tid)

		case compile.NodeTerm:
			start := e.issuePipelined(unit, ready)
			done = start + 1
			cond := e.vals[n.In[0]]
			if h.Branch != nil {
				h.Branch(tid, cond, done)
			}

		case compile.NodeSplit:
			start := e.issuePipelined(unit, ready)
			done, val = start+1, e.vals[n.In[0]]

		case compile.NodeJoin:
			start := e.issuePipelined(unit, ready)
			done = start + 1

		case compile.NodeLVLoad:
			start := e.issuePipelined(unit, ready)
			val, done = h.AccessLV(n.LV, tid, false, 0, start)

		case compile.NodeLVStore:
			start := e.issuePipelined(unit, ready)
			_, done = h.AccessLV(n.LV, tid, true, e.vals[n.In[0]], start)

		case compile.NodeOp:
			val, done, err = e.execOp(n, unit, tid, ready, h, st)
			if err != nil {
				return 0, err
			}
		default:
			return 0, errUnknownNodeKind
		}

		st.Ops[n.Class()]++
		if n.Kind == compile.NodeOp && n.Instr.Op.IsFloat() && n.Class() == kir.ClassALU {
			st.FPOps++
		}
		if e.opt.Trace.Enabled(trace.CatEngine) {
			dur := done - ready
			if dur < 0 {
				// LV hits can complete "before" issue (the value was already
				// resident); a span still needs a non-negative duration.
				dur = 0
			}
			e.opt.Trace.Emit(trace.Event{
				Name: nodeEventName(n), Cat: trace.CatEngine, Phase: trace.PhaseSpan,
				Track: h.TraceTrack, Ts: ready, Dur: dur,
				K1: "node", V1: int64(n.ID), K2: "tid", V2: int64(tid), K3: "replica", V3: int64(r),
			})
		}
		e.vals[n.ID] = val
		e.done[n.ID] = done
		e.lastDone[r*e.nNodes+n.ID] = done
		if done > threadEnd {
			threadEnd = done
		}
	}
	return threadEnd, nil
}

// execOp executes a kernel-instruction node.
//
//vgiw:hotpath
func (e *Engine) execOp(n *compile.Node, unit, tid int, ready int64, h *Hooks, st *Stats) (uint32, int64, error) {
	op := n.Instr.Op
	switch {
	case op.IsGeometry():
		start := e.issuePipelined(unit, ready)
		return h.Geometry(op, tid), start + OpLatency(op), nil

	case op == kir.OpParam:
		start := e.issuePipelined(unit, ready)
		return h.Param(int(n.Instr.Imm)), start + 1, nil

	case op.IsMemory():
		// Predicated-off SGMF memory ops skip the access entirely.
		if n.HasPred && e.vals[n.In[n.Pred]] == 0 {
			start := e.issuePipelined(unit, ready)
			st.SkippedMemOps++
			return 0, start + 1, nil
		}
		addr := int64(int32(e.vals[n.In[0]]) + n.Instr.Imm)
		var value uint32
		if op.IsStore() {
			value = e.vals[n.In[1]]
		}
		space := SpaceGlobal
		if op.IsShared() {
			space = SpaceShared
			st.SharedAccesses++
		} else {
			st.GlobalAccesses++
		}
		start := e.issueLDST(unit, ready)
		word, done, err := h.AccessMem(space, addr, op.IsStore(), value, tid, start)
		if err != nil {
			return 0, 0, err
		}
		e.noteLDSTCompletion(unit, done)
		return word, done, nil

	default: // ALU/FPU or SCU: one initiation per cycle
		start := e.issuePipelined(unit, ready)
		val := kir.Eval(op, e.operand(n, 0), e.operand(n, 1), e.operand(n, 2), n.Instr.Imm)
		return val, start + OpLatency(op), nil
	}
}

// nodeEventName labels a node-firing trace event. All returned strings are
// static (the op mnemonic table or literals), per the sink's no-copy rule.
func nodeEventName(n *compile.Node) string {
	switch n.Kind {
	case compile.NodeInit:
		return "init"
	case compile.NodeTerm:
		return "term"
	case compile.NodeSplit:
		return "split"
	case compile.NodeJoin:
		return "join"
	case compile.NodeLVLoad:
		return "lvload"
	case compile.NodeLVStore:
		return "lvstore"
	case compile.NodeOp:
		return n.Instr.Op.String()
	}
	return "node"
}

func (e *Engine) operand(n *compile.Node, i int) uint32 {
	if i < n.Instr.Op.NumSrc() && i < len(n.In) {
		return e.vals[n.In[i]]
	}
	return 0
}

// issuePipelined models a fully pipelined unit: one initiation per cycle,
// with out-of-order claiming so a late token does not delay earlier-ready
// ones (tagged-token dynamic dataflow).
//
//vgiw:hotpath
func (e *Engine) issuePipelined(unit int, ready int64) int64 {
	return e.units[unit].Alloc(ready)
}

// issueLDST models the reservation buffer: at most ReservationSlots memory
// operations outstanding per LDST unit. A slot frees when its own operation
// completes, so hits drain around a stalled miss.
//
//vgiw:hotpath
func (e *Engine) issueLDST(unit int, ready int64) int64 {
	return e.issuePipelined(unit, e.resBuf[unit].Admit(ready))
}

func (e *Engine) noteLDSTCompletion(unit int, done int64) {
	e.resBuf[unit].Record(done)
}

// resize returns s grown (or sliced) to length n, reusing the backing array
// when it is large enough. Contents are unspecified — callers overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
