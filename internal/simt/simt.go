// Package simt is the von Neumann GPGPU baseline: a cycle-approximate model
// of an NVIDIA Fermi streaming multiprocessor. It executes kernels in
// lockstep warps of 32 threads with a SIMT reconvergence stack (execution
// masks under divergence), dual warp schedulers, a register scoreboard,
// per-warp memory coalescing, and a write-through/no-allocate L1 (§3.6).
//
// The model exists to reproduce the paper's comparisons: Figure 3 (register
// file traffic), Figure 7 (speedup), and Figures 9/10 (energy efficiency).
package simt

import (
	"context"
	"fmt"
	"math/bits"

	"vgiw/internal/compile"
	"vgiw/internal/engine"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// Config sizes the SM.
type Config struct {
	WarpSize   int // 32 lanes
	MaxCTAs    int // resident CTAs (Fermi: 8)
	MaxWarps   int // resident warps (Fermi: 48)
	IssueWidth int // warp instructions issued per cycle (dual schedulers)

	// Execution-port occupancies: cycles one warp instruction holds the
	// shared unit array (32 lanes over N units of that kind).
	ALUOccupancy int64 // 32 CUDA cores: 1 warp instruction per cycle
	SFUOccupancy int64 // 4 SFUs: 8 cycles
	MemOccupancy int64 // 16 LD/ST units: 2 cycles
	// BranchLat is the pipeline-refill bubble a warp pays at every block
	// terminator (branch resolution + instruction fetch redirect).
	BranchLat int64
	// PipelineLat is the register-file round-trip added to every dependent
	// latency: operand collection, the execution pipeline's writeback
	// stage, and the RF write. Fermi's measured dependent ALU latency is
	// ~18 cycles; the dataflow fabric forwards tokens directly and pays
	// only hop latency instead — one of the two von Neumann overheads the
	// paper targets (§1).
	PipelineLat int64
	// Scheduler selects the warp scheduling policy.
	Scheduler SchedPolicy
	Mem       mem.Config
	// Trace, when non-nil, receives cycle-level events (trace.CatSIMT for
	// warp issue/stall/divergence/reconvergence/barrier, trace.CatMem for
	// periodic memory-system counter samples). A nil sink keeps the issue
	// loop allocation-free.
	Trace *trace.Sink
}

// SchedPolicy selects how the warp scheduler picks among ready warps.
type SchedPolicy uint8

const (
	// SchedLRR is loose round robin (the default).
	SchedLRR SchedPolicy = iota
	// SchedGTO is greedy-then-oldest: stick with the last issued warp
	// while it stays ready, else fall back to the oldest ready warp —
	// the policy family the paper's related work ([11], two-level warp
	// scheduling) improves on.
	SchedGTO
)

func (p SchedPolicy) String() string {
	if p == SchedGTO {
		return "gto"
	}
	return "lrr"
}

// DefaultConfig is a GTX480-class SM with the §3.6 memory system
// (write-through, no-allocate L1).
func DefaultConfig() Config {
	return Config{
		WarpSize: 32,
		MaxCTAs:  8,
		MaxWarps: 48,
		// Fermi's two schedulers run at the half-rate scheduler clock; at
		// the 1.4GHz core clock the SM sustains one warp instruction per
		// cycle (32 CUDA cores = one full warp ALU op per core cycle).
		IssueWidth:   1,
		ALUOccupancy: 1,
		SFUOccupancy: 8,
		MemOccupancy: 2,
		BranchLat:    4,
		PipelineLat:  14,
		Mem:          mem.DefaultConfig(mem.WriteThrough),
	}
}

// Result aggregates a kernel execution on the SM.
type Result struct {
	Kernel  string
	Threads int
	Cycles  int64

	WarpInstrs   uint64 // issued warp instructions (terminators included)
	ThreadInstrs uint64 // sum of active lanes over issued instructions
	MaskedLanes  uint64 // lanes disabled by divergence on issued instructions

	// Register file traffic. RFReads/RFWrites count per-lane word accesses
	// (the RF reads a full vector register per warp operand, so all
	// WarpSize lanes are charged); RFWarpAccesses counts one access per
	// warp operand.
	RFReads, RFWrites uint64
	RFWarpAccesses    uint64

	ALUOps  uint64 // active ALU lane-operations
	FPOps   uint64 // active floating-point lane-operations (subset of ALUOps)
	SFUOps  uint64 // active SFU lane-operations
	MemOps  uint64 // active memory lane-operations
	L1Trans uint64 // coalesced L1 transactions
	ShTrans uint64 // shared-memory transactions

	Divergences uint64 // stack pushes (branches where lanes split)
	Barriers    uint64

	MemStats mem.SystemStats
}

// stackEntry is one SIMT reconvergence stack level: execute `block` under
// `mask`; pop when control reaches `rpc`.
type stackEntry struct {
	block int
	instr int
	rpc   int
	mask  uint32
}

type warp struct {
	id   int
	cta  int
	tid0 int // global thread ID of lane 0; lane l runs thread tid0+l

	// regs is the warp's register file, register-major: lane l's copy of
	// register r is regs[r*WarpSize+l], so each operand of a warp
	// instruction is one contiguous column (run.col).
	regs     []uint32
	regReady []int64 // scoreboard: cycle each register's value is ready

	stack   []stackEntry
	active  uint32 // lanes that have not returned
	readyAt int64  // structural: next cycle this warp may issue

	atBarrier bool
	done      bool

	// Issue-readiness memo: the scoreboard half of earliestIssue (readyAt
	// folded with the operand regReady of the warp's next instruction) and
	// the port that instruction needs (-1 for terminators, which need none).
	// It is valid while the run's gate entry for this warp holds issueReady;
	// the warp's own issues and barrier releases are the only events that
	// change the answer, and they mark the entry stale.
	issueReady int64
	issuePort  int
}

func (w *warp) top() *stackEntry { return &w.stack[len(w.stack)-1] }

// warpSlab is the per-warp storage a retired warp hands to the next
// admitted one: its register slab, scoreboard and stack.
type warpSlab struct {
	regs     []uint32
	regReady []int64
	stack    []stackEntry
}

// Machine is the SM simulator.
type Machine struct {
	cfg Config
}

// NewMachine builds an SM.
func NewMachine(cfg Config) *Machine { return &Machine{cfg: cfg} }

// RunCtx executes a compiled kernel launch, mutating global memory in
// place. The warp-scheduler loop polls ctx every ctxCheckCycles scheduling
// rounds and returns ctx.Err() once the context is done, so a deadline or
// cancel preempts a running kernel.
func (m *Machine) RunCtx(ctx context.Context, ck *compile.CompiledKernel, launch kir.Launch, global []uint32) (*Result, error) {
	r, err := m.newRun(ctx, ck, launch, global)
	if err != nil {
		return nil, err
	}
	if err := r.execute(); err != nil {
		return nil, err
	}
	r.res.Cycles = r.cycle
	r.res.MemStats = r.sys.Stats()
	r.sys.Release() // stats snapshotted; recycle the cache directories
	return r.res, nil
}

// newRun validates the launch and builds the state of one kernel execution,
// before any CTA is admitted.
func (m *Machine) newRun(ctx context.Context, ck *compile.CompiledKernel, launch kir.Launch, global []uint32) (*run, error) {
	k := ck.Kernel
	if err := k.ValidateLaunch(launch); err != nil {
		return nil, err
	}
	r := &run{
		m:         m,
		ctx:       ctx,
		k:         k,
		ipdom:     ck.IPDom,
		launch:    launch,
		global:    global,
		sys:       mem.NewSystem(m.cfg.Mem),
		res:       &Result{Kernel: k.Name, Threads: launch.Threads()},
		ws:        m.cfg.WarpSize,
		lineWords: int64(m.cfg.Mem.L1.LineBytes / 4),
		lineShift: -1,
		liveCTA:   make([]int, launch.CTAs()),
		barriers:  make([]int, launch.CTAs()),
		sink:      m.cfg.Trace,
	}
	if lw := r.lineWords; lw > 0 && lw&(lw-1) == 0 {
		r.lineShift = bits.TrailingZeros64(uint64(lw))
	}
	if r.sink.Enabled(trace.CatSIMT | trace.CatMem) {
		pid := r.sink.AllocProcess(k.Name + "/simt")
		r.tr = simtTracks{
			sched: trace.TrackID{Pid: pid, Tid: 0},
			div:   trace.TrackID{Pid: pid, Tid: 1},
			mem:   trace.TrackID{Pid: pid, Tid: 2},
		}
		r.sink.DefineTrack(r.tr.sched, "sched")
		r.sink.DefineTrack(r.tr.div, "divergence")
		r.sink.DefineTrack(r.tr.mem, "mem")
	}
	r.shared = make([][]uint32, launch.CTAs())
	for i := range r.shared {
		r.shared[i] = make([]uint32, k.SharedWds)
	}
	return r, nil
}

type run struct {
	m      *Machine
	ctx    context.Context
	k      *kir.Kernel
	ipdom  []int
	launch kir.Launch
	global []uint32
	shared [][]uint32
	sys    *mem.System
	res    *Result

	ws int // lanes per warp (cfg.WarpSize)
	// lineWords is the L1 line size in words; lineShift is its log2, or -1
	// when it is not a power of two and execMem must divide.
	lineWords int64
	lineShift int

	warps []*warp
	// gate is the dense issue gate, parallel to warps (gate[w.id] belongs to
	// w): never for a retired or barrier-waiting warp, gateStale while the
	// warp's issue memo must be recomputed, and otherwise the memoized
	// w.issueReady. Each entry is a lower bound on the cycle its warp can
	// issue, so the schedulers and the next-event scan reject a candidate
	// with one load; debugVerifyIssueCache checks every entry against the
	// state it mirrors.
	gate     []int64
	nextCTA  int
	liveCTA  []int // per CTA: live warps
	barriers []int // per CTA: warps waiting at the barrier
	// residentCTAs counts CTAs with live warps.
	residentCTAs int
	cycle        int64
	lastPick     int   // LRR rotation cursor (index into warps; reset by compact)
	greedy       *warp // GTO greedy target, tracked by identity: compact()
	// renumbers warp IDs, so an index or ID would silently redirect the
	// greedy policy to a different warp across compaction.

	// liveWarps counts admitted warps not yet retired (retired ones stay in
	// warps until compact runs).
	liveWarps int
	// free holds the storage of retired warps for the next admissions.
	free []warpSlab

	// Shared execution ports: next cycle the ALU array / SFUs / LD-ST
	// units accept a new warp instruction.
	portFree [3]int64

	// memScratch dedupes line/bank ids in execMem. Reused across
	// instructions so the hot path allocates nothing; lane order (not map
	// order) decides the access sequence, keeping runs reproducible.
	memScratch []int64

	// sink/tr route cycle-level events; lastMemSample throttles the
	// memory-counter track to one sample per memSampleCycles.
	sink          *trace.Sink
	tr            simtTracks
	lastMemSample int64
}

const (
	// never is a cycle no event reaches: the bound the next-event scan
	// starts from, and the gate of a warp that cannot issue.
	never int64 = 1<<62 - 1
	// gateStale sits below every cycle, so the scheduler always looks past
	// the gate of a warp whose issue memo must be recomputed.
	gateStale int64 = -1
)

// simtTracks lays out one SIMT run's trace tracks: the issue stream
// (issue spans + stall gaps), divergence-stack activity, and memory-system
// counter samples.
type simtTracks struct {
	sched, div, mem trace.TrackID
}

// memSampleCycles is the SIMT memory-counter sampling period. The SM has no
// natural epoch boundary like VGIW's block-vector retirement, so counters are
// sampled on a fixed cycle grid.
const memSampleCycles = 1024

// sampleMem emits cumulative memory-system counters onto the mem track, at
// most once per memSampleCycles.
func (r *run) sampleMem() {
	if !r.sink.Enabled(trace.CatMem) || r.cycle-r.lastMemSample < memSampleCycles {
		return
	}
	r.lastMemSample = r.cycle
	r.sys.Stats().EmitCounters(r.sink, r.tr.mem, r.cycle)
}

// Execution port indices.
const (
	portALU = iota
	portSFU
	portMEM
)

// portOf classifies an instruction onto an execution port.
func portOf(op kir.Op) int {
	switch {
	case op.IsMemory():
		return portMEM
	case op.Class() == kir.ClassSCU:
		return portSFU
	}
	return portALU
}

// execute drives the warp schedulers until every CTA has completed.
func (r *run) execute() error {
	ctaSize := r.launch.CTASize()
	warpsPerCTA := (ctaSize + r.ws - 1) / r.ws
	if warpsPerCTA > r.m.cfg.MaxWarps {
		return fmt.Errorf("simt: CTA of %d threads exceeds %d resident warps", ctaSize, r.m.cfg.MaxWarps)
	}

	// Cooperative cancellation: one ctx poll per ctxCheckCycles scheduling
	// rounds keeps the per-cycle cost negligible while bounding cancellation
	// latency to well under a millisecond of host time.
	const ctxCheckCycles = 4096
	checkIn := ctxCheckCycles

	for {
		if checkIn--; checkIn <= 0 {
			checkIn = ctxCheckCycles
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		// Admit resident CTAs up to the occupancy limits; compact retired
		// warps away once they dominate the list.
		for r.nextCTA < r.launch.CTAs() &&
			r.residentCTAs < r.m.cfg.MaxCTAs &&
			r.liveWarps+warpsPerCTA <= r.m.cfg.MaxWarps {
			r.admitCTA(r.nextCTA, warpsPerCTA)
			r.nextCTA++
		}
		if len(r.warps) > 4*r.m.cfg.MaxWarps {
			r.compact()
		}
		if r.liveWarps == 0 {
			if r.nextCTA >= r.launch.CTAs() {
				return nil
			}
			continue
		}

		issued := 0
		for issued < r.m.cfg.IssueWidth {
			w := r.pickWarp()
			if w == nil {
				break
			}
			if err := r.issue(w); err != nil {
				return err
			}
			issued++
		}
		if issued > 0 {
			r.cycle++
			r.sampleMem()
			continue
		}
		// Nothing issuable this cycle: jump to the next event. A gate at or
		// past the best time so far cannot win (the port only delays it
		// further), which also skips retired and barrier-waiting warps.
		if debugVerifyIssueCache {
			r.verifyGates()
		}
		next := never
		for i, g := range r.gate {
			if g >= next {
				continue
			}
			if t := r.earliestIssue(r.warps[i]); t < next {
				next = t
			}
		}
		if next >= never {
			return fmt.Errorf("simt: deadlock at cycle %d (all warps blocked)", r.cycle)
		}
		if next <= r.cycle {
			next = r.cycle + 1
		}
		if r.sink.Enabled(trace.CatSIMT) {
			// An issue-less gap: every resident warp is stalled on the
			// scoreboard, an execution port, or a barrier.
			r.sink.Emit(trace.Event{Name: "stall", Cat: trace.CatSIMT, Phase: trace.PhaseSpan,
				Track: r.tr.sched, Ts: r.cycle, Dur: next - r.cycle,
				K1: "warps", V1: int64(r.liveWarps)})
		}
		r.cycle = next
		r.sampleMem()
	}
}

// compact drops retired warps and renumbers the rest, carrying their gate
// entries along. The GTO greedy target is held by pointer, so it survives
// renumbering; only a retired target is dropped.
func (r *run) compact() {
	live := r.warps[:0]
	gate := r.gate[:0]
	for i, w := range r.warps {
		if !w.done {
			w.id = len(live)
			live = append(live, w)
			gate = append(gate, r.gate[i])
		}
	}
	r.warps = live
	r.gate = gate
	r.lastPick = 0
	if r.greedy != nil && r.greedy.done {
		r.greedy = nil
	}
}

// admitCTA makes a CTA resident. Warps take their storage from retired
// warps when there is any, zeroed so a recycled warp starts as a fresh one
// does: a lane that reads a register its thread never wrote sees 0.
func (r *run) admitCTA(cta, warpsPerCTA int) {
	ctaSize := r.launch.CTASize()
	for wi := 0; wi < warpsPerCTA; wi++ {
		w := &warp{
			id:      len(r.warps),
			cta:     cta,
			tid0:    cta*ctaSize + wi*r.ws,
			readyAt: r.cycle,
		}
		if n := len(r.free); n > 0 {
			s := r.free[n-1]
			r.free = r.free[:n-1]
			clear(s.regs)
			clear(s.regReady)
			w.regs, w.regReady, w.stack = s.regs, s.regReady, s.stack[:0]
		} else {
			w.regs = make([]uint32, r.k.NumRegs*r.ws)
			w.regReady = make([]int64, r.k.NumRegs)
		}
		// Lanes past the CTA's last thread never activate.
		mask := ^uint32(0) >> (32 - min(r.ws, ctaSize-wi*r.ws))
		w.active = mask
		w.stack = append(w.stack, stackEntry{block: 0, instr: 0, rpc: -1, mask: mask})
		r.warps = append(r.warps, w)
		r.gate = append(r.gate, gateStale)
		r.liveWarps++
		r.liveCTA[cta]++
	}
	r.residentCTAs++
}

// col is the warp's column of register reg: one word per lane.
func (r *run) col(w *warp, reg kir.Reg) []uint32 {
	i := int(reg) * r.ws
	return w.regs[i : i+r.ws : i+r.ws]
}

// debugVerifyIssueCache, set by tests only, makes the scheduler check every
// issue-gate entry against the warp state it mirrors (retirement, barrier
// wait, and the issue memo recomputed from scratch) before reading the gate,
// and panic on any drift.
var debugVerifyIssueCache bool

// verifyGates is the debugVerifyIssueCache check.
func (r *run) verifyGates() {
	if len(r.gate) != len(r.warps) {
		panic(fmt.Sprintf("simt: %d gate entries for %d warps", len(r.gate), len(r.warps)))
	}
	for i, w := range r.warps {
		g := r.gate[i]
		switch {
		case w.id != i:
			panic(fmt.Sprintf("simt: warp at index %d has id %d", i, w.id))
		case w.done || w.atBarrier:
			if g != never {
				panic(fmt.Sprintf("simt: warp %d (done %v, at barrier %v) has an open gate %d", i, w.done, w.atBarrier, g))
			}
		case g == never:
			panic(fmt.Sprintf("simt: issuable warp %d has a closed gate", i))
		case g != gateStale:
			ready, port := r.scoreboardReady(w)
			if g != w.issueReady || ready != w.issueReady || port != w.issuePort {
				panic(fmt.Sprintf("simt: stale issue gate for warp %d: gate %d, cached (%d, port %d), fresh (%d, port %d)",
					i, g, w.issueReady, w.issuePort, ready, port))
			}
		}
	}
}

// earliestIssue computes when the warp's next instruction could issue. The
// scoreboard half is memoized per warp (the scheduler polls every stalled
// warp each idle cycle, but the answer only changes when the warp issues or
// a barrier release bumps readyAt); the shared execution ports are read live.
// The warp must be able to issue: neither retired nor waiting at a barrier.
func (r *run) earliestIssue(w *warp) int64 {
	if r.gate[w.id] == gateStale {
		w.issueReady, w.issuePort = r.scoreboardReady(w)
		r.gate[w.id] = w.issueReady
	}
	t := w.issueReady
	if w.issuePort >= 0 {
		if pf := r.portFree[w.issuePort]; pf > t {
			t = pf
		}
	}
	return t
}

// scoreboardReady scans the warp's next instruction: the cycle its operands
// and the warp itself are ready, plus the execution port it needs (-1 for
// terminators).
func (r *run) scoreboardReady(w *warp) (int64, int) {
	t := w.readyAt
	e := w.top()
	blk := r.k.Blocks[e.block]
	if e.instr < len(blk.Instrs) {
		in := &blk.Instrs[e.instr]
		for i := 0; i < in.Op.NumSrc(); i++ {
			if rr := w.regReady[in.Src[i]]; rr > t {
				t = rr
			}
		}
		return t, portOf(in.Op)
	}
	if blk.Term.Kind == kir.TermBranch {
		if rr := w.regReady[blk.Term.Cond]; rr > t {
			t = rr
		}
	}
	return t, -1
}

// pickWarp selects a ready warp according to the configured policy. A
// candidate whose gate lies past the current cycle is rejected unread.
func (r *run) pickWarp() *warp {
	n := len(r.warps)
	if n == 0 {
		return nil
	}
	if debugVerifyIssueCache {
		r.verifyGates()
	}
	if r.m.cfg.Scheduler == SchedGTO {
		// Greedy: stay on the last issued warp while it remains ready.
		if w := r.greedy; w != nil && r.gate[w.id] <= r.cycle && r.earliestIssue(w) <= r.cycle {
			return w
		}
		// Then oldest: lowest warp ID that is ready (admission order is
		// age order, and compact preserves it).
		for i, g := range r.gate {
			if g > r.cycle {
				continue
			}
			if w := r.warps[i]; r.earliestIssue(w) <= r.cycle {
				r.greedy = w
				return w
			}
		}
		return nil
	}
	// Loose round robin, starting after the last pick.
	i := r.lastPick
	for range n {
		if i++; i >= n {
			i = 0
		}
		if r.gate[i] > r.cycle {
			continue
		}
		if w := r.warps[i]; r.earliestIssue(w) <= r.cycle {
			r.lastPick = i
			return w
		}
	}
	return nil
}

// issue executes one warp instruction (or terminator) at the current cycle.
func (r *run) issue(w *warp) error {
	e := w.top()
	blk := r.k.Blocks[e.block]
	if e.instr < len(blk.Instrs) {
		return r.issueInstr(w, &blk.Instrs[e.instr])
	}
	return r.issueTerm(w, &blk.Term)
}

// countRF charges register-file traffic for one issued warp instruction.
func (r *run) countRF(reads, writes int) {
	ws := uint64(r.ws)
	r.res.RFReads += uint64(reads) * ws
	r.res.RFWrites += uint64(writes) * ws
	r.res.RFWarpAccesses += uint64(reads + writes)
}

func (r *run) issueInstr(w *warp, in *kir.Instr) error {
	op := in.Op
	e := w.top()
	mask := e.mask
	lanesOn := bits.OnesCount32(mask)
	r.res.WarpInstrs++
	r.res.ThreadInstrs += uint64(lanesOn)
	r.res.MaskedLanes += uint64(bits.OnesCount32(w.active &^ mask))
	hasDst := op.HasDst()
	r.countRF(op.NumSrc(), boolInt(hasDst))

	lat := engine.OpLatency(op)
	occupancy := r.m.cfg.ALUOccupancy
	done := r.cycle + lat

	port := portOf(op)
	switch port {
	case portMEM:
		r.res.MemOps += uint64(lanesOn)
		var trans int
		var err error
		done, trans, err = r.execMem(w, in, mask)
		if err != nil {
			return err
		}
		// An uncoalesced access replays: the LD/ST port is held once per
		// generated transaction (memory divergence), not per instruction.
		occupancy = r.m.cfg.MemOccupancy
		if t := int64(trans); t > occupancy {
			occupancy = t
		}
	case portSFU:
		occupancy = r.m.cfg.SFUOccupancy
		r.res.SFUOps += uint64(lanesOn)
		r.execALU(w, in, mask)
	default:
		r.res.ALUOps += uint64(lanesOn)
		if op.IsFloat() {
			r.res.FPOps += uint64(lanesOn)
		}
		r.execALU(w, in, mask)
	}

	if hasDst {
		w.regReady[in.Dst] = done + r.m.cfg.PipelineLat
	}
	r.portFree[port] = r.cycle + occupancy
	w.readyAt = r.cycle + 1
	e.instr++
	r.gate[w.id] = gateStale // next instruction, new readyAt, new regReady[dst]
	if r.sink.Enabled(trace.CatSIMT) {
		// One span per issued warp instruction: issue to execution-complete
		// (the op name labels the span; the register writeback lands
		// PipelineLat later).
		r.sink.Emit(trace.Event{Name: op.String(), Cat: trace.CatSIMT, Phase: trace.PhaseSpan,
			Track: r.tr.sched, Ts: r.cycle, Dur: done - r.cycle,
			K1: "warp", V1: int64(w.id), K2: "block", V2: int64(e.block), K3: "lanes", V3: int64(lanesOn)})
	}
	return nil
}

// execALU evaluates a non-memory instruction on the active lanes. The
// operand and destination columns are resolved once per instruction, and
// the lane loops visit only the set bits of the mask.
func (r *run) execALU(w *warp, in *kir.Instr, mask uint32) {
	op := in.Op
	dst := r.col(w, in.Dst)
	switch {
	case op == kir.OpParam:
		fill(dst, mask, r.launch.Params[in.Imm])
	case op.IsGeometry():
		r.execGeometry(w, op, dst, mask)
	default:
		switch op.NumSrc() {
		case 0:
			fill(dst, mask, kir.Eval(op, 0, 0, 0, in.Imm))
		case 1:
			a := r.col(w, in.Src[0])
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = kir.Eval(op, a[l], 0, 0, in.Imm)
			}
		case 2:
			a, b := r.col(w, in.Src[0]), r.col(w, in.Src[1])
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = kir.Eval(op, a[l], b[l], 0, in.Imm)
			}
		default:
			a, b, c := r.col(w, in.Src[0]), r.col(w, in.Src[1]), r.col(w, in.Src[2])
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = kir.Eval(op, a[l], b[l], c[l], in.Imm)
			}
		}
	}
}

// execGeometry writes a thread coordinate into the active lanes. A warp
// never spans CTAs and its lanes are consecutive thread IDs, so the CTA
// coordinates and dimensions are one value per instruction, and TIDX/TIDY
// step from lane 0's coordinates (x fastest) without a divide per lane.
func (r *run) execGeometry(w *warp, op kir.Op, dst []uint32, mask uint32) {
	switch op {
	case kir.OpTID:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dst[l] = uint32(w.tid0 + l)
		}
	case kir.OpTIDX, kir.OpTIDY:
		bx := uint32(r.launch.BlockX)
		x, y := r.launch.Geometry(kir.OpTIDX, w.tid0), r.launch.Geometry(kir.OpTIDY, w.tid0)
		for l := 0; mask>>l != 0; l++ {
			if mask&(1<<l) != 0 {
				if op == kir.OpTIDX {
					dst[l] = x
				} else {
					dst[l] = y
				}
			}
			if x++; x == bx {
				x, y = 0, y+1
			}
		}
	default:
		fill(dst, mask, r.launch.Geometry(op, w.tid0))
	}
}

// fill writes v into the active lanes of a column.
func fill(dst []uint32, mask uint32, v uint32) {
	for m := mask; m != 0; m &= m - 1 {
		dst[bits.TrailingZeros32(m)] = v
	}
}

// addID appends id unless ids already holds it. Neighbouring lanes usually
// share a line, so the last id is checked first.
func addID(ids []int64, id int64) []int64 {
	if n := len(ids); n > 0 && ids[n-1] == id {
		return ids
	}
	for _, v := range ids {
		if v == id {
			return ids
		}
	}
	return append(ids, id)
}

// execMem performs a coalesced memory access for the active lanes and
// returns the completion cycle of the slowest transaction plus the number of
// transactions generated (line transactions for global memory, conflicting
// bank groups for shared memory).
func (r *run) execMem(w *warp, in *kir.Instr, mask uint32) (int64, int, error) {
	write := in.Op.IsStore()
	addrs := r.col(w, in.Src[0])
	// data is the stored column for a store, the loaded one for a load.
	var data []uint32
	if write {
		data = r.col(w, in.Src[1])
	} else {
		data = r.col(w, in.Dst)
	}

	done := r.cycle + 1
	// ids collects the distinct line (global) or bank (shared) numbers the
	// active lanes touch, deduped in lane order with a linear scan — the warp
	// is at most 32 lanes wide, and unlike a map the resulting access order
	// is reproducible (bank/port timing depends on it).
	ids := r.memScratch[:0]
	if in.Op.IsShared() {
		sh := r.shared[w.cta]
		banks := int64(r.m.cfg.Mem.SharedBanks)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			addr := int64(int32(addrs[l]) + in.Imm)
			if addr < 0 || addr >= int64(len(sh)) {
				return 0, 0, fmt.Errorf("simt: thread %d: shared access out of bounds: %d (size %d)",
					w.tid0+l, addr, len(sh))
			}
			if write {
				sh[addr] = data[l]
			} else {
				data[l] = sh[addr]
			}
			ids = addID(ids, addr%banks)
		}
		r.memScratch = ids
		// Bank conflicts serialize; each distinct bank is one transaction.
		r.res.ShTrans += uint64(len(ids))
		for _, b := range ids {
			if t := r.sys.AccessShared(b, r.cycle); t > done {
				done = t
			}
		}
		return done, len(ids), nil
	}
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		addr := int64(int32(addrs[l]) + in.Imm)
		if addr < 0 || addr >= int64(len(r.global)) {
			return 0, 0, fmt.Errorf("simt: thread %d: global access out of bounds: %d (size %d)",
				w.tid0+l, addr, len(r.global))
		}
		if write {
			r.global[addr] = data[l]
		} else {
			data[l] = r.global[addr]
		}
		if r.lineShift >= 0 {
			ids = addID(ids, addr>>r.lineShift)
		} else {
			ids = addID(ids, addr/r.lineWords)
		}
	}
	r.memScratch = ids
	// Coalescing: one transaction per distinct 128B line (Fermi-style).
	r.res.L1Trans += uint64(len(ids))
	for _, line := range ids {
		if t := r.sys.AccessLine(line, write, r.cycle); t > done {
			done = t
		}
	}
	return done, len(ids), nil
}

// issueTerm executes a block terminator: branch resolution, divergence-stack
// maintenance, reconvergence pops, barrier arrival, and thread retirement.
func (r *run) issueTerm(w *warp, t *kir.Terminator) error {
	e := w.top()
	r.res.WarpInstrs++
	r.res.ThreadInstrs += uint64(bits.OnesCount32(e.mask))
	// Control moves and readyAt changes; retirement or a barrier wait below
	// closes the gate again.
	r.gate[w.id] = gateStale

	switch t.Kind {
	case kir.TermRet:
		exiting := e.mask
		w.active &^= exiting
		for i := range w.stack {
			w.stack[i].mask &^= exiting
		}
		w.stack = w.stack[:len(w.stack)-1]
		r.popEmpty(w)
		if w.active == 0 || len(w.stack) == 0 {
			r.retireWarp(w)
			return nil
		}

	case kir.TermJump:
		e.block = t.Then
		e.instr = 0
		r.reconverge(w)

	case kir.TermBranch:
		r.countRF(1, 0) // the condition register read
		cond := r.col(w, t.Cond)
		var maskThen uint32
		for m := e.mask; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros32(m); cond[l] != 0 {
				maskThen |= 1 << l
			}
		}
		maskElse := e.mask &^ maskThen
		switch {
		case maskElse == 0:
			e.block, e.instr = t.Then, 0
		case maskThen == 0:
			e.block, e.instr = t.Else, 0
		default:
			r.res.Divergences++
			d := r.ipdom[e.block]
			full := e.mask
			if r.sink.Enabled(trace.CatSIMT) {
				r.sink.Emit(trace.Event{Name: "diverge", Cat: trace.CatSIMT, Phase: trace.PhaseInstant,
					Track: r.tr.div, Ts: r.cycle,
					K1: "warp", V1: int64(w.id), K2: "block", V2: int64(e.block), K3: "depth", V3: int64(len(w.stack) + 2)})
			}
			// Continuation at the reconvergence point, then the two paths.
			*e = stackEntry{block: d, instr: 0, rpc: e.rpc, mask: full}
			w.stack = append(w.stack,
				stackEntry{block: t.Else, instr: 0, rpc: d, mask: maskElse},
				stackEntry{block: t.Then, instr: 0, rpc: d, mask: maskThen},
			)
		}
		r.reconverge(w)
	}

	w.readyAt = r.cycle + 1 + r.m.cfg.BranchLat
	r.checkBarrier(w)
	return nil
}

// reconverge pops stack levels whose control reached their reconvergence
// point, then drops empty-mask levels (all lanes exited).
func (r *run) reconverge(w *warp) {
	pops := 0
	for len(w.stack) > 0 {
		e := w.top()
		if e.mask == 0 || (e.rpc >= 0 && e.block == e.rpc && e.instr == 0) {
			w.stack = w.stack[:len(w.stack)-1]
			pops++
			continue
		}
		break
	}
	if pops > 0 && r.sink.Enabled(trace.CatSIMT) {
		r.sink.Emit(trace.Event{Name: "reconverge", Cat: trace.CatSIMT, Phase: trace.PhaseInstant,
			Track: r.tr.div, Ts: r.cycle,
			K1: "warp", V1: int64(w.id), K2: "pops", V2: int64(pops), K3: "depth", V3: int64(len(w.stack))})
	}
	if len(w.stack) == 0 {
		r.retireWarp(w)
	}
}

func (r *run) popEmpty(w *warp) {
	for len(w.stack) > 0 && w.top().mask == 0 {
		w.stack = w.stack[:len(w.stack)-1]
	}
	// A revealed entry may itself sit at its reconvergence point.
	if len(w.stack) > 0 {
		r.reconverge(w)
	}
}

// retireWarp closes the warp's gate and hands its storage to the next
// admission; a retired warp's registers, scoreboard and stack are never read
// again.
func (r *run) retireWarp(w *warp) {
	if w.done {
		return
	}
	w.done = true
	r.gate[w.id] = never
	r.free = append(r.free, warpSlab{w.regs, w.regReady, w.stack})
	w.regs, w.regReady, w.stack = nil, nil, nil
	r.liveWarps--
	if r.liveCTA[w.cta]--; r.liveCTA[w.cta] == 0 {
		r.residentCTAs--
	}
	r.releaseBarrier(w.cta)
}

// checkBarrier stalls the warp if its next block is a barrier block and the
// rest of the CTA has not arrived yet.
func (r *run) checkBarrier(w *warp) {
	if w.done || len(w.stack) == 0 {
		return
	}
	e := w.top()
	if e.instr != 0 || !r.k.Blocks[e.block].Barrier {
		return
	}
	r.barriers[w.cta]++
	w.atBarrier = true
	r.gate[w.id] = never
	r.res.Barriers++
	if r.sink.Enabled(trace.CatSIMT) {
		r.sink.Emit(trace.Event{Name: "barrier.wait", Cat: trace.CatSIMT, Phase: trace.PhaseInstant,
			Track: r.tr.div, Ts: r.cycle,
			K1: "warp", V1: int64(w.id), K2: "cta", V2: int64(w.cta), K3: "waiting", V3: int64(r.barriers[w.cta])})
	}
	r.releaseBarrier(w.cta)
}

// releaseBarrier opens the barrier once every live warp of the CTA waits.
func (r *run) releaseBarrier(cta int) {
	if r.barriers[cta] == 0 {
		return
	}
	if r.barriers[cta] < r.liveCTA[cta] {
		return
	}
	for i, w := range r.warps {
		if w.cta == cta && w.atBarrier {
			w.atBarrier = false
			if w.readyAt < r.cycle+1 {
				w.readyAt = r.cycle + 1
			}
			r.gate[i] = gateStale // readyAt may have moved
		}
	}
	if r.sink.Enabled(trace.CatSIMT) {
		r.sink.Emit(trace.Event{Name: "barrier.release", Cat: trace.CatSIMT, Phase: trace.PhaseInstant,
			Track: r.tr.div, Ts: r.cycle,
			K1: "cta", V1: int64(cta), K2: "released", V2: int64(r.barriers[cta])})
	}
	r.barriers[cta] = 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
