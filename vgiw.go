// Package vgiw is a from-scratch Go reproduction of the hybrid dataflow/von
// Neumann VGIW GPGPU ("Control Flow Coalescing on a Hybrid Dataflow/von
// Neumann GPGPU", Voitsechov & Etsion, MICRO-48 2015).
//
// It bundles:
//
//   - a kernel IR with a builder API and a textual assembly format (kasm);
//   - the VGIW compiler: live-value allocation, block scheduling, per-block
//     dataflow graphs, place & route onto the MT-CGRF fabric;
//   - three machine simulators — the VGIW processor (control flow
//     coalescing), a Fermi-like SIMT baseline, and the SGMF dataflow
//     baseline — all validated against a golden interpreter;
//   - an energy model and the benchmark/experiment harness that regenerates
//     the paper's tables and figures.
//
// # Quickstart
//
//	b := vgiw.NewKernelBuilder("scale")
//	b.SetParams(1)
//	blk := b.NewBlock("entry")
//	b.SetBlock(blk)
//	addr := b.Add(b.Param(0), b.Tid())
//	v := b.Load(addr, 0)
//	b.Store(addr, 0, b.FMul(v, b.ConstF(2)))
//	b.Ret()
//	kernel := b.MustBuild()
//
//	global := make([]uint32, 1024)
//	res, err := vgiw.RunVGIW(kernel, vgiw.Launch1D(32, 32, 0), global, nil)
//
// See examples/ for complete programs and cmd/vgiw-experiments for the
// paper-reproduction harness.
package vgiw

import (
	"context"

	"vgiw/internal/bench"
	"vgiw/internal/compile"
	"vgiw/internal/core"
	"vgiw/internal/kasm"
	"vgiw/internal/kernels"
	"vgiw/internal/kir"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
)

// Kernel construction and IR.
type (
	// Kernel is a compiled-from-source compute kernel (a CFG of basic blocks).
	Kernel = kir.Kernel
	// Builder constructs kernels programmatically.
	Builder = kir.Builder
	// Launch is a CUDA-style grid/block launch configuration.
	Launch = kir.Launch
	// Reg names a 32-bit virtual register.
	Reg = kir.Reg
)

// NewKernelBuilder starts a new kernel.
func NewKernelBuilder(name string) *Builder { return kir.NewBuilder(name) }

// Launch1D builds a 1-D launch: gridX CTAs of blockX threads.
func Launch1D(gridX, blockX int, params ...uint32) Launch {
	return kir.Launch1D(gridX, blockX, params...)
}

// F32 converts a float32 to its register encoding; AsF32 inverts it.
func F32(v float32) uint32      { return kir.F32(v) }
func AsF32(bits uint32) float32 { return kir.AsF32(bits) }

// ParseKasm parses the textual kernel assembly format.
func ParseKasm(src string) (*Kernel, error) { return kasm.Parse(src) }

// PrintKasm renders a kernel as parseable kasm text.
func PrintKasm(k *Kernel) string { return kasm.Print(k) }

// Machine configurations and results.
type (
	// VGIWConfig assembles a VGIW processor (Table 1 defaults).
	VGIWConfig = core.Config
	// VGIWResult aggregates a VGIW execution (cycles, reconfigurations,
	// LVC/CVT traffic, per-block runs, and the fabric's event counts; Ops
	// is a dense array of node executions indexed by unit class).
	VGIWResult = core.Result
	// SIMTConfig sizes the Fermi-like SM baseline.
	SIMTConfig = simt.Config
	// SIMTResult aggregates a SIMT execution (cycles, warp instructions,
	// register-file traffic, divergence counters).
	SIMTResult = simt.Result
	// SGMFConfig assembles the SGMF dataflow baseline.
	SGMFConfig = sgmf.Config
	// SGMFResult aggregates an SGMF execution (cycles, placement, and the
	// fabric's event counts, with Ops indexed by unit class as in
	// VGIWResult).
	SGMFResult = sgmf.Result
)

// DefaultVGIWConfig returns the paper's Table 1 machine.
func DefaultVGIWConfig() VGIWConfig { return core.DefaultConfig() }

// DefaultSIMTConfig returns the GTX480-class SM baseline.
func DefaultSIMTConfig() SIMTConfig { return simt.DefaultConfig() }

// DefaultSGMFConfig returns the SGMF core (same fabric as VGIW).
func DefaultSGMFConfig() SGMFConfig { return sgmf.DefaultConfig() }

// RunVGIW compiles (with fabric-fitting block splitting) and executes a
// kernel launch on the VGIW machine, mutating global memory in place. It
// compiles a copy, so k is left unchanged. A nil cfg uses the Table 1
// default.
func RunVGIW(k *Kernel, launch Launch, global []uint32, cfg *VGIWConfig) (*VGIWResult, error) {
	c := core.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	m, err := core.NewMachine(c)
	if err != nil {
		return nil, err
	}
	return m.RunKernel(k.Clone(), launch, global)
}

// RunSIMT executes a kernel launch on the Fermi-like baseline. It compiles
// a copy, so k is left unchanged.
func RunSIMT(k *Kernel, launch Launch, global []uint32, cfg *SIMTConfig) (*SIMTResult, error) {
	c := simt.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	ck, err := compile.Compile(k.Clone())
	if err != nil {
		return nil, err
	}
	return simt.NewMachine(c).RunCtx(context.Background(), ck, launch, global)
}

// RunSGMF executes a kernel launch on the SGMF baseline. It compiles a
// copy, so k is left unchanged. It fails for kernels SGMF cannot map
// (loops, barriers, or graphs that exceed the fabric) — the limitation VGIW
// removes.
func RunSGMF(k *Kernel, launch Launch, global []uint32, cfg *SGMFConfig) (*SGMFResult, error) {
	c := sgmf.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	m, err := sgmf.NewMachine(c)
	if err != nil {
		return nil, err
	}
	return m.Run(k.Clone(), launch, global)
}

// Interpret runs the golden reference interpreter (functional semantics, no
// timing), mutating global in place.
func Interpret(k *Kernel, launch Launch, global []uint32) error {
	in := &kir.Interp{Kernel: k, Launch: launch, Global: global}
	return in.Run()
}

// Benchmarks and experiments.
type (
	// Workload describes one Rodinia-equivalent benchmark kernel.
	Workload = kernels.Spec
	// WorkloadInstance is a runnable workload (kernel + launch + memory +
	// host-reference validation).
	WorkloadInstance = kernels.Instance
	// ExperimentOptions configures the reproduction harness.
	ExperimentOptions = bench.Options
	// KernelRun holds one benchmark's results on every machine.
	KernelRun = bench.KernelRun
)

// Workloads returns the Table 2 benchmark registry.
func Workloads() []Workload { return kernels.All() }

// WorkloadByName finds a benchmark kernel (e.g. "bfs.kernel1").
func WorkloadByName(name string) (Workload, bool) { return kernels.ByName(name) }

// DefaultExperimentOptions returns the paper's machine configurations.
func DefaultExperimentOptions() ExperimentOptions { return bench.DefaultOptions() }

// RunExperiment executes one benchmark on all machines, validating every
// result against the host reference.
func RunExperiment(w Workload, opt ExperimentOptions) (*KernelRun, error) {
	return bench.RunOneCtx(context.Background(), w, opt)
}

// RunAllExperiments executes the full benchmark registry.
func RunAllExperiments(opt ExperimentOptions) ([]*KernelRun, error) {
	return bench.RunAll(opt)
}
