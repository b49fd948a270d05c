// Package sgmf models the Single-Graph Multiple-Flows dataflow GPGPU
// (Voitsechov & Etsion, ISCA 2014), the paper's second baseline. SGMF maps
// the *entire* kernel — all control paths, if-converted into predicated
// dataflow — onto the MT-CGRF at once (Figure 1c). It therefore:
//
//   - cannot run kernels whose flattened graph exceeds the fabric, nor
//     kernels with loops or barriers (§2, §5): no loop is unrolled, so
//     every kernel with a back edge is rejected;
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

	// Counts holds the run's fabric events; SkippedMemOps counts the
	// predicated-off accesses, the divergence waste.
	engine.Counts
	MemStats mem.SystemStats
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

// Mapped is SGMF's compile/place artifact: the scheduled, if-converted
// kernel together with its whole-kernel placement. It is immutable once
// built — RunMappedCtx only reads it — so one Mapped may be shared by
// concurrent runs on machines with the same fabric configuration.
type Mapped struct {
	// Kernel is the transformed kernel the graph was built from (the
	// mapping passes mutate their input in place; keep this one, not the
	// original, alongside the placement).
	Kernel    *kir.Kernel
	Placement *fabric.Placement
}

// Translate lowers a kernel to SGMF's whole-kernel dataflow graph: it
// schedules the blocks, which validates the kernel, then if-converts them,
// which reports why a kernel is not SGMF-mappable (loops, barriers). The
// kernel is mutated in place (block scheduling).
func (m *Machine) Translate(k *kir.Kernel) (*compile.BlockDFG, error) {
	var opts []compile.Option
	if m.cfg.Checked {
		opts = append(opts, compile.Checked())
	}
	if _, err := compile.ScheduleBlocks(k); err != nil {
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

// Run executes a kernel launch: one static configuration, every thread
// streamed through the whole-kernel graph.
func (m *Machine) Run(k *kir.Kernel, launch kir.Launch, global []uint32) (*Result, error) {
	mapped, err := m.Map(k)
	if err != nil {
		return nil, err
	}
	return m.RunMappedCtx(context.Background(), mapped, launch, global)
}

// RunMappedCtx executes a pre-mapped kernel launch. It treats mapped as
// read-only, so a cached Mapped can be executed concurrently by independent
// machines. The engine polls ctx while the thread vector streams through the
// whole-kernel graph, so a deadline or cancel preempts a running kernel.
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
		sys.Stats().EmitCounters(sink, tracks.mem, st.EndCycle)
	}
	// Stats are snapshotted below; recycle the directories and slot rings.
	defer sys.Release()
	defer m.eng.Release()
	return &Result{
		Kernel:     k.Name,
		Threads:    launch.Threads(),
		Cycles:     st.EndCycle,
		GraphNodes: len(p.Graph.Nodes),
		Replicas:   p.Replicas,
		Counts:     st.Counts,
		MemStats:   sys.Stats(),
	}, nil
}
