package core

import (
	"context"
	"fmt"
	"slices"

	"vgiw/internal/compile"
	"vgiw/internal/engine"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// Config assembles a full VGIW processor (Table 1 by default).
type Config struct {
	Fabric fabric.Config
	Mem    mem.Config
	LVC    mem.CacheConfig
	// CVTCapacityBits is the total bit budget of the control vector table;
	// the tile size follows §3.2:
	// tile = CVT_size / #basic_blocks (rounded to whole CTAs).
	CVTCapacityBits int
	Engine          engine.Options
	// ReplicationOff forces one replica per block (ablation).
	ReplicationOff bool
	// Checked runs the kernel-IR verifier after every compiler pass and
	// the placed-graph checker after placement (internal/verify). On in
	// tests and the daemon's compile path; off in timed runs — the checks
	// re-derive whole-kernel analyses and would distort measurements.
	Checked bool
}

// DefaultConfig is the evaluated machine: Table 1 fabric, §3.6 memory system
// with write-back L1, 64KB LVC, 64 Kbit CVT (the paper's CVT is banked;
// this model does not simulate CVT bank contention).
func DefaultConfig() Config {
	return Config{
		Fabric:          fabric.DefaultConfig(),
		Mem:             mem.DefaultConfig(mem.WriteBack),
		LVC:             DefaultLVCConfig(),
		CVTCapacityBits: 1 << 16,
	}
}

// Machine is a VGIW processor instance.
type Machine struct {
	cfg  Config
	grid *fabric.Grid
	eng  *engine.Engine

	// threadScratch is the reusable coalesced-vector buffer: CVT.Drain fills
	// it each block run, and the engine only reads it during the call.
	threadScratch []int

	// tr is the per-run trace track layout (zero when tracing is off).
	tr vgiwTracks
}

// vgiwTracks lays out one VGIW run's trace tracks: the BBS schedule (block
// vectors + reconfigurations), the CVT feed, the LVC feed, the memory-system
// counters, and the fabric's node firings. All share one process per run.
type vgiwTracks struct {
	on                         bool
	bbs, cvt, lvc, mem, fabric trace.TrackID
}

// setupTrace allocates the run's trace process and names its tracks.
func (m *Machine) setupTrace(kernelName string) {
	sink := m.cfg.Engine.Trace
	m.tr = vgiwTracks{}
	if !sink.Enabled(trace.CatVGIW | trace.CatCVT | trace.CatLVC | trace.CatMem | trace.CatEngine) {
		return
	}
	pid := sink.AllocProcess(kernelName + "/vgiw")
	m.tr = vgiwTracks{
		on:     true,
		bbs:    trace.TrackID{Pid: pid, Tid: 0},
		cvt:    trace.TrackID{Pid: pid, Tid: 1},
		lvc:    trace.TrackID{Pid: pid, Tid: 2},
		mem:    trace.TrackID{Pid: pid, Tid: 3},
		fabric: trace.TrackID{Pid: pid, Tid: 4},
	}
	sink.DefineTrack(m.tr.bbs, "bbs")
	sink.DefineTrack(m.tr.cvt, "cvt")
	sink.DefineTrack(m.tr.lvc, "lvc")
	sink.DefineTrack(m.tr.mem, "mem")
	sink.DefineTrack(m.tr.fabric, "fabric")
}

// NewMachine builds the processor.
func NewMachine(cfg Config) (*Machine, error) {
	grid, err := fabric.NewGrid(cfg.Fabric)
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, grid: grid, eng: engine.New(grid, cfg.Engine)}, nil
}

// Grid exposes the fabric (for reporting).
func (m *Machine) Grid() *fabric.Grid { return m.grid }

// BlockRun records one scheduled block execution.
type BlockRun struct {
	Block   int
	Threads int
	Start   int64 // cycle the vector began streaming (after reconfiguration)
	Cycles  int64
	// Stats and ThreadIDs hold the engine statistics and the coalesced
	// thread vector for this run when profiling is enabled
	// (Config.Engine.Profile).
	Stats     *engine.Stats
	ThreadIDs []int
}

// Result aggregates a kernel execution on the VGIW machine.
type Result struct {
	Kernel   string
	Threads  int
	Tiles    int
	TileSize int

	Cycles       int64  // total runtime
	Reconfigs    uint64 // grid reconfigurations
	ConfigCycles int64  // cycles spent reconfiguring
	BlockRuns    []BlockRun

	CVTReads, CVTWrites uint64
	LVCLoads, LVCStores uint64
	LVCStats            mem.CacheStats
	MemStats            mem.SystemStats

	// Counts totals the fabric's events over every block run.
	engine.Counts

	// ReplicasOf[b] is the replication factor block b ran with.
	ReplicasOf []int
}

// ConfigOverhead is the fraction of runtime spent reconfiguring (§3.2
// reports an average of 0.18% with a sub-0.1% median).
func (r *Result) ConfigOverhead() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.ConfigCycles) / float64(r.Cycles)
}

// Prepared bundles a compiled kernel with its per-block placements — the
// full compile/place artifact a VGIW run executes. It is immutable once
// built: RunPreparedCtx only reads it, so one Prepared may be shared by any
// number of concurrent runs on machines with the same fabric configuration
// (the placements' unit IDs refer to the deterministic grid layout that
// configuration produces). Placement does not depend on the LVC or CVT
// sizing, so design-space sweeps over those parameters reuse one Prepared.
type Prepared struct {
	CK         *compile.CompiledKernel
	Placements []*fabric.Placement
	// Replicas[bi] is the replication factor block bi was placed with.
	Replicas []int
}

// Prepare places every block of a compiled kernel onto the fabric once
// (the BBS holds the per-block configurations and prefetches them into its
// FIFO, §3.2).
func (m *Machine) Prepare(ck *compile.CompiledKernel) (*Prepared, error) {
	k := ck.Kernel
	p := &Prepared{
		CK:         ck,
		Placements: make([]*fabric.Placement, len(k.Blocks)),
		Replicas:   make([]int, len(k.Blocks)),
	}
	for bi, g := range ck.DFGs {
		replicas := fabric.MaxReplicasFor(m.grid, g)
		if replicas == 0 {
			return nil, fmt.Errorf("core: block %d of %s (%d nodes) does not fit the fabric",
				bi, k.Name, len(g.Nodes))
		}
		if m.cfg.ReplicationOff {
			replicas = 1
		}
		pl, err := fabric.Place(m.grid, g, replicas)
		if err != nil {
			return nil, err
		}
		if m.cfg.Checked {
			if err := fabric.VerifyPlaced("place", m.grid, pl, ck.LV.NumIDs); err != nil {
				return nil, fmt.Errorf("core: kernel %s: %w", k.Name, err)
			}
		}
		p.Placements[bi] = pl
		p.Replicas[bi] = replicas
	}
	return p, nil
}

// Run executes a compiled kernel launch to completion, mutating global
// memory in place.
func (m *Machine) Run(ck *compile.CompiledKernel, launch kir.Launch, global []uint32) (*Result, error) {
	prep, err := m.Prepare(ck)
	if err != nil {
		return nil, err
	}
	return m.RunPreparedCtx(context.Background(), prep, launch, global)
}

// RunPreparedCtx executes a prepared kernel launch to completion, mutating
// global memory in place. It treats prep as read-only, so a cached Prepared
// can be executed concurrently by independent machines. The BBS schedule
// checks ctx between block-vector executions and the engine polls it while a
// vector streams, so a deadline or cancel preempts a running kernel
// mid-simulation.
func (m *Machine) RunPreparedCtx(ctx context.Context, prep *Prepared, launch kir.Launch, global []uint32) (*Result, error) {
	ck := prep.CK
	k := ck.Kernel
	placements := prep.Placements
	sys := mem.NewSystem(m.cfg.Mem)
	env, err := engine.NewDataEnv(k, launch, global, sys)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kernel:     k.Name,
		Threads:    launch.Threads(),
		ReplicasOf: slices.Clone(prep.Replicas),
	}

	tile := tileSize(m.cfg, ck, launch)
	res.TileSize = tile

	lvc := NewLVC(m.cfg.LVC, sys, ck.LV.NumIDs, tile)
	m.setupTrace(k.Name)
	if m.tr.on {
		lvc.SetTrace(m.cfg.Engine.Trace, m.tr.lvc)
	}

	now := int64(0)
	total := launch.Threads()
	for base := 0; base < total; base += tile {
		n := tile
		if base+n > total {
			n = total - base
		}
		end, err := m.runTile(ctx, ck, placements, env, lvc, base, n, now, res)
		if err != nil {
			return nil, err
		}
		now = end
	}
	res.Cycles = now
	res.LVCLoads = lvc.Loads
	res.LVCStores = lvc.Stores
	res.LVCStats = lvc.Stats()
	res.MemStats = sys.Stats()
	// Stats are snapshotted; recycle the cache directories and slot rings
	// for the next run (the parallel harness builds a fresh machine + memory
	// system per run).
	lvc.Release()
	sys.Release()
	m.eng.Release()
	return res, nil
}

// tileSize is the thread tile (§3.2, §3.4): the CVT bit budget split
// across the kernel's blocks, capped so the tile's live values fit the LVC
// ("spilling ... is generally prevented by thread tiling"). Tiles are whole
// CTAs so barriers stay inside a tile, which can push a tile past the LVC
// cap, and never exceed the launch.
func tileSize(cfg Config, ck *compile.CompiledKernel, launch kir.Launch) int {
	ctaSize := launch.CTASize()
	tile := cfg.CVTCapacityBits / len(ck.Kernel.Blocks)
	if ck.LV.NumIDs > 0 {
		if lvcTile := cfg.LVC.SizeBytes / (4 * ck.LV.NumIDs); lvcTile < tile {
			tile = lvcTile
		}
	}
	if tile < ctaSize {
		tile = ctaSize
	}
	tile -= tile % ctaSize
	if tile > launch.Threads() {
		tile = launch.Threads()
	}
	return tile
}

// EffectiveConfig is the part of cfg that a run of prep over launch can
// observe: runs whose configs have equal effective configs produce
// identical Results. It is cfg with three fields changed:
//   - CVTCapacityBits holds the tile the budget yields, because the CVT's
//     capacity acts on a run only through the tile.
//   - Engine.Trace is nil: a sink changes what a run emits, never what it
//     computes.
//   - LVC.SizeBytes is 0 when the tile's live-value matrix maps onto the LVC
//     with no set receiving more lines than it has ways. Such an LVC never
//     evicts, so it behaves as an unbounded one with the same banks, line
//     size, latency and policy, and its capacity too acts only through the
//     tile.
//
// The result is a content key, not a machine to run: a run under it would
// size the tile again.
func EffectiveConfig(cfg Config, prep *Prepared, launch kir.Launch) Config {
	tile := tileSize(cfg, prep.CK, launch)
	if lvcNeverEvicts(cfg.LVC, prep.CK.LV.NumIDs, tile) {
		cfg.LVC.SizeBytes = 0
	}
	cfg.CVTCapacityBits = tile
	cfg.Engine.Trace = nil
	return cfg
}

// runTile drives one tile of threads from the entry block to completion.
func (m *Machine) runTile(ctx context.Context, ck *compile.CompiledKernel, placements []*fabric.Placement,
	env *engine.DataEnv, lvc *LVC, base, n int, now int64, res *Result) (int64, error) {

	k := ck.Kernel
	cvt := NewCVT(len(k.Blocks), n)
	cvt.SetAll(0, n)
	lvc.Reset()
	res.Tiles++
	sink := m.cfg.Engine.Trace

	hooks := env.Hooks()
	hooks.TraceTrack = m.tr.fabric
	hooks.AccessLV = func(lv, tid int, write bool, value uint32, at int64) (uint32, int64) {
		return lvc.Access(lv, tid-base, write, value, at)
	}
	hooks.AccessLVFast = func(lv, tid int, write bool, value uint32) uint32 {
		return lvc.AccessFast(lv, tid-base, write, value)
	}
	curBlock := 0
	hooks.Branch = func(tid int, cond uint32, now int64) {
		t := k.Blocks[curBlock].Term
		target := -1
		switch t.Kind {
		case kir.TermJump:
			target = t.Then
		case kir.TermBranch:
			if cond != 0 {
				target = t.Then
			} else {
				target = t.Else
			}
		case kir.TermRet:
			// Thread retires.
		}
		if target < 0 {
			return
		}
		cvt.Register(target, tid-base)
		if sink.Enabled(trace.CatCVT) {
			sink.Emit(trace.Event{Name: "cvt.enqueue", Cat: trace.CatCVT, Phase: trace.PhaseInstant,
				Track: m.tr.cvt, Ts: now, K1: "block", V1: int64(target), K2: "tid", V2: int64(tid)})
		}
	}

	lastBlock := -1
	for {
		b := cvt.NextBlock()
		if b < 0 {
			break
		}
		// Blocks with no instructions need no fabric pass: the BBS retires
		// threads headed for an empty ret block directly, and forwards
		// threads through an empty jump block to its successor (the
		// terminator CVU already delivered the successor ID).
		if blk := k.Blocks[b]; len(blk.Instrs) == 0 {
			rel := cvt.Drain(b, m.threadScratch[:0])
			m.threadScratch = rel
			switch blk.Term.Kind {
			case kir.TermRet:
				continue
			case kir.TermJump:
				for _, r := range rel {
					cvt.Register(blk.Term.Then, r)
				}
				continue
			}
			// A branch with no body still needs its condition evaluated on
			// the fabric: fall through to a normal run.
			for _, r := range rel {
				cvt.Register(b, r)
			}
		}
		threads := cvt.Drain(b, m.threadScratch[:0])
		for i := range threads {
			threads[i] += base // tile-relative to global thread ID
		}
		m.threadScratch = threads
		if sink.Enabled(trace.CatCVT) {
			sink.Emit(trace.Event{Name: "cvt.coalesce", Cat: trace.CatCVT, Phase: trace.PhaseInstant,
				Track: m.tr.cvt, Ts: now, K1: "block", V1: int64(b), K2: "threads", V2: int64(len(threads))})
		}
		// Reconfigure unless the grid already holds this block's graph.
		// Configurations are prefetched during the previous block's
		// execution, so only the reset+feed cost lands on the critical
		// path (§3.2).
		if b != lastBlock {
			if sink.Enabled(trace.CatVGIW) {
				sink.Emit(trace.Event{Name: "reconfig", Cat: trace.CatVGIW, Phase: trace.PhaseSpan,
					Track: m.tr.bbs, Ts: now, Dur: m.cfg.Fabric.ConfigCycles, K1: "block", V1: int64(b)})
			}
			now += m.cfg.Fabric.ConfigCycles
			res.Reconfigs++
			res.ConfigCycles += m.cfg.Fabric.ConfigCycles
			lastBlock = b
		}
		curBlock = b
		st, err := m.eng.RunVectorCtx(ctx, placements[b], threads, now, hooks)
		if err != nil {
			return 0, err
		}
		br := BlockRun{Block: b, Threads: len(threads), Start: st.StartCycle, Cycles: st.Cycles()}
		if m.cfg.Engine.Profile {
			// Copy inside the branch, so st escapes only on profiled runs.
			// The thread vector is scratch, so retain a copy too.
			bst := st
			br.Stats = &bst
			br.ThreadIDs = append([]int(nil), threads...)
		}
		if sink.Enabled(trace.CatVGIW) {
			// One span per coalesced block-vector execution: launch at
			// StartCycle, retire at EndCycle. The label is the block's
			// compile-time name, so the Perfetto track reads as the BBS
			// schedule.
			sink.Emit(trace.Event{Name: k.Blocks[b].Label, Cat: trace.CatVGIW, Phase: trace.PhaseSpan,
				Track: m.tr.bbs, Ts: st.StartCycle, Dur: st.Cycles(),
				K1: "block", V1: int64(b), K2: "threads", V2: int64(len(threads)),
				K3: "replicas", V3: int64(placements[b].Replicas)})
		}
		if sink.Enabled(trace.CatMem) {
			// Epoch sample: cumulative memory-system counters after every
			// block-vector execution, rendered as counter tracks.
			env.Sys.Stats().EmitCounters(sink, m.tr.mem, st.EndCycle)
			ls := lvc.Stats()
			sink.Emit(trace.Event{Name: "lvc", Cat: trace.CatMem, Phase: trace.PhaseCounter,
				Track: m.tr.mem, Ts: st.EndCycle,
				K1: "accesses", V1: int64(ls.Accesses()), K2: "misses", V2: int64(ls.Misses())})
		}
		res.BlockRuns = append(res.BlockRuns, br)
		res.Counts.Add(st.Counts)
		now = st.EndCycle
	}
	res.CVTReads += cvt.Reads
	res.CVTWrites += cvt.Writes
	return now, nil
}

// Compile runs the full compiler pipeline for this machine: compilation
// with fabric-fitting block splitting.
func (m *Machine) Compile(k *kir.Kernel) (*compile.CompiledKernel, error) {
	var opts []compile.Option
	if m.cfg.Checked {
		opts = append(opts, compile.Checked())
	}
	return compile.CompileFitted(k, m.grid.Fits, opts...)
}

// RunKernel compiles (with fabric-fitting block splitting) and runs a kernel.
func (m *Machine) RunKernel(k *kir.Kernel, launch kir.Launch, global []uint32) (*Result, error) {
	ck, err := m.Compile(k)
	if err != nil {
		return nil, err
	}
	return m.Run(ck, launch, global)
}
