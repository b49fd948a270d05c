// Package sgmf models the Single-Graph Multiple-Flows dataflow GPGPU
// (Voitsechov & Etsion, ISCA 2014), the paper's second baseline. SGMF maps
// the *entire* kernel — all control paths, if-converted into predicated
// dataflow — onto the MT-CGRF at once (Figure 1c). It therefore:
//
//   - cannot run kernels whose flattened graph exceeds the fabric, nor
//     kernels with data-dependent loops or barriers (§2, §5);
//   - wastes units on not-taken paths under control divergence;
//   - needs no reconfiguration, no live value cache, and no control vector
//     table, which makes it faster than VGIW on small low-divergence kernels
//     (Figures 8 and 11).
package sgmf

import (
	"context"
	"fmt"

	"vgiw/internal/compile"
	"vgiw/internal/engine"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// Config assembles an SGMF core.
type Config struct {
	Fabric fabric.Config
	Mem    mem.Config
	Engine engine.Options
	// Checked runs the kernel-IR verifier after every mapping pass and
	// the placed-graph checker after placement (internal/verify). On in
	// tests and the daemon's compile path; off in timed runs.
	Checked bool
}

// DefaultConfig matches the VGIW fabric and memory system so comparisons
// isolate the execution model.
func DefaultConfig() Config {
	return Config{
		Fabric: fabric.DefaultConfig(),
		Mem:    mem.DefaultConfig(mem.WriteBack),
	}
}

// Result aggregates a kernel execution on the SGMF core.
type Result struct {
	Kernel  string
	Threads int
	Cycles  int64

	GraphNodes int
	Replicas   int

	Ops            map[kir.UnitClass]uint64
	FPOps          uint64
	TokenHops      uint64
	TokenTransfers uint64
	SkippedMemOps  uint64 // predicated-off accesses: the divergence waste
	GlobalAccesses uint64
	SharedAccesses uint64
	MemStats       mem.SystemStats
}

// Machine is an SGMF core instance.
type Machine struct {
	cfg  Config
	grid *fabric.Grid
	eng  *engine.Engine
}

// NewMachine builds the core.
func NewMachine(cfg Config) (*Machine, error) {
	grid, err := fabric.NewGrid(cfg.Fabric)
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, grid: grid, eng: engine.New(grid, cfg.Engine)}, nil
}

// Mapped is SGMF's compile/place artifact: the scheduled, unrolled,
// if-converted kernel together with its whole-kernel placement. It is
// immutable once built — RunMapped only reads it — so one Mapped may be
// shared by concurrent runs on machines with the same fabric configuration.
type Mapped struct {
	// Kernel is the transformed kernel the graph was built from (the
	// mapping passes mutate their input in place; keep this one, not the
	// original, alongside the placement).
	Kernel    *kir.Kernel
	Placement *fabric.Placement
}

// Translate lowers a kernel to SGMF's whole-kernel dataflow graph,
// reporting why a kernel is not SGMF-mappable (loops, barriers). The kernel
// is mutated in place (block scheduling, loop unrolling).
func (m *Machine) Translate(k *kir.Kernel) (*compile.BlockDFG, error) {
	var opts []compile.Option
	if m.cfg.Checked {
		opts = append(opts, compile.Checked())
	}
	if _, err := compile.ScheduleBlocks(k); err != nil {
		return nil, err
	}
	// Counted loops with compile-time trip counts can be fully unrolled,
	// which turns some loopy kernels into SGMF-mappable acyclic graphs
	// (bounded so the result still has a chance of fitting the fabric).
	if _, err := compile.UnrollLoops(k, 16, 96, opts...); err != nil {
		return nil, err
	}
	return compile.IfConvert(k, opts...)
}

// PlaceGraph maps the whole-kernel graph onto the fabric with as many
// replicas as fit, reporting oversize failures.
func (m *Machine) PlaceGraph(name string, g *compile.BlockDFG) (*fabric.Placement, error) {
	p, err := fabric.PlaceMax(m.grid, g)
	if err != nil {
		return nil, fmt.Errorf("sgmf: kernel %s: %w", name, err)
	}
	if m.cfg.Checked {
		// numLVs 0: the flattened whole-kernel graph must not touch the LVC.
		if err := fabric.VerifyPlaced("place", m.grid, p, 0); err != nil {
			return nil, fmt.Errorf("sgmf: kernel %s: %w", name, err)
		}
	}
	return p, nil
}

// Map if-converts and places the kernel, reporting why a kernel is not
// SGMF-mappable (loops, barriers, or exceeding the fabric). The input kernel
// is mutated in place; the returned artifact retains it.
func (m *Machine) Map(k *kir.Kernel) (*Mapped, error) {
	g, err := m.Translate(k)
	if err != nil {
		return nil, err
	}
	p, err := m.PlaceGraph(k.Name, g)
	if err != nil {
		return nil, err
	}
	return &Mapped{Kernel: k, Placement: p}, nil
}

// Supported reports whether the kernel can run on SGMF at all.
func (m *Machine) Supported(k *kir.Kernel) bool {
	_, err := m.Map(k)
	return err == nil
}

// Run executes a kernel launch: one static configuration, every thread
// streamed through the whole-kernel graph.
func (m *Machine) Run(k *kir.Kernel, launch kir.Launch, global []uint32) (*Result, error) {
	mapped, err := m.Map(k)
	if err != nil {
		return nil, err
	}
	return m.RunMapped(mapped, launch, global)
}

// RunMapped executes a pre-mapped kernel launch. It treats mapped as
// read-only, so a cached Mapped can be executed concurrently by independent
// machines.
func (m *Machine) RunMapped(mapped *Mapped, launch kir.Launch, global []uint32) (*Result, error) {
	return m.RunMappedCtx(context.Background(), mapped, launch, global)
}

// RunMappedCtx is RunMapped with cooperative cancellation: the engine polls
// ctx while the thread vector streams through the whole-kernel graph, so a
// deadline or cancel preempts a running kernel.
func (m *Machine) RunMappedCtx(ctx context.Context, mapped *Mapped, launch kir.Launch, global []uint32) (*Result, error) {
	k, p := mapped.Kernel, mapped.Placement
	sys := mem.NewSystem(m.cfg.Mem)
	env, err := engine.NewDataEnv(k, launch, global, sys)
	if err != nil {
		return nil, err
	}
	threads := make([]int, launch.Threads())
	for i := range threads {
		threads[i] = i
	}
	hooks := env.Hooks()
	sink := m.cfg.Engine.Trace
	var tracks struct{ run, fabric, mem trace.TrackID }
	traced := sink.Enabled(trace.CatSGMF | trace.CatEngine | trace.CatMem)
	if traced {
		pid := sink.AllocProcess(k.Name + "/sgmf")
		tracks.run = trace.TrackID{Pid: pid, Tid: 0}
		tracks.fabric = trace.TrackID{Pid: pid, Tid: 1}
		tracks.mem = trace.TrackID{Pid: pid, Tid: 2}
		sink.DefineTrack(tracks.run, "run")
		sink.DefineTrack(tracks.fabric, "fabric")
		sink.DefineTrack(tracks.mem, "mem")
		hooks.TraceTrack = tracks.fabric
	}
	// A single configuration at kernel load; afterwards threads stream
	// continuously (no BBS, no reconfiguration).
	start := m.cfg.Fabric.ConfigCycles
	if sink.Enabled(trace.CatSGMF) {
		sink.Emit(trace.Event{Name: "configure", Cat: trace.CatSGMF, Phase: trace.PhaseSpan,
			Track: tracks.run, Ts: 0, Dur: start, K1: "nodes", V1: int64(len(p.Graph.Nodes))})
	}
	st, err := m.eng.RunVectorCtx(ctx, p, threads, start, hooks)
	if err != nil {
		return nil, err
	}
	if sink.Enabled(trace.CatSGMF) {
		// One span for the whole streamed kernel: SGMF has no block schedule.
		sink.Emit(trace.Event{Name: k.Name, Cat: trace.CatSGMF, Phase: trace.PhaseSpan,
			Track: tracks.run, Ts: st.StartCycle, Dur: st.Cycles(),
			K1: "threads", V1: int64(launch.Threads()), K2: "replicas", V2: int64(p.Replicas)})
	}
	if sink.Enabled(trace.CatMem) {
		ms := sys.Stats()
		sink.Emit(trace.Event{Name: "l1", Cat: trace.CatMem, Phase: trace.PhaseCounter,
			Track: tracks.mem, Ts: st.EndCycle,
			K1: "accesses", V1: int64(ms.L1.Accesses()), K2: "misses", V2: int64(ms.L1.Misses())})
		sink.Emit(trace.Event{Name: "l2", Cat: trace.CatMem, Phase: trace.PhaseCounter,
			Track: tracks.mem, Ts: st.EndCycle,
			K1: "accesses", V1: int64(ms.L2.Accesses()), K2: "misses", V2: int64(ms.L2.Misses())})
		sink.Emit(trace.Event{Name: "dram", Cat: trace.CatMem, Phase: trace.PhaseCounter,
			Track: tracks.mem, Ts: st.EndCycle,
			K1: "reads", V1: int64(ms.DRAM.Reads), K2: "writes", V2: int64(ms.DRAM.Writes)})
	}
	// Stats are snapshotted below; recycle the directories and slot rings.
	defer sys.Release()
	defer m.eng.Release()
	return &Result{
		Kernel:         k.Name,
		Threads:        launch.Threads(),
		Cycles:         st.EndCycle,
		GraphNodes:     len(p.Graph.Nodes),
		Replicas:       p.Replicas,
		Ops:            st.Ops.Map(),
		FPOps:          st.FPOps,
		TokenHops:      st.TokenHops,
		TokenTransfers: st.TokenTransfers,
		SkippedMemOps:  st.SkippedMemOps,
		GlobalAccesses: st.GlobalAccesses,
		SharedAccesses: st.SharedAccesses,
		MemStats:       sys.Stats(),
	}, nil
}
