// Package bench is the experiment harness: it runs each benchmark kernel on
// the VGIW machine, the Fermi-like SIMT baseline, and (where mappable) the
// SGMF baseline, validates every run against the host reference, prices the
// runs with the energy model, and computes the metrics behind the paper's
// figures (3, 7, 8, 9, 10, 11) and tables (1, 2).
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vgiw/internal/core"
	"vgiw/internal/kernels"
	"vgiw/internal/power"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
	"vgiw/internal/trace"
)

// Options configures a harness run.
type Options struct {
	Scale int // workload scale factor (1 = default laptop size)
	VGIW  core.Config
	SIMT  simt.Config
	SGMF  sgmf.Config
	Power power.Table
	// SkipSGMF disables the SGMF runs (they re-run the kernel a third time).
	SkipSGMF bool
	// Parallelism caps how many kernel runs execute concurrently. Each run
	// builds its own machines and memory image, so runs share no mutable
	// state and the results are bit-identical to a serial sweep. 0 (the
	// zero value) means runtime.NumCPU(); 1 forces the serial path.
	Parallelism int
	// Cache shares workload, compile/place and baseline-result artifacts
	// across runs. When nil (and NoCache is false), RunMatrix/RunSuite/
	// LVCSweep create a private cache for the call; pass one explicitly to
	// share artifacts across several harness calls (the experiment CLI
	// shares one between the figure matrix and the LVC sweep).
	Cache *ArtifactCache
	// NoCache disables artifact sharing entirely: every run rebuilds its
	// workload, compiles from scratch and simulates every machine. Results
	// are byte-identical with the cache on or off — this is an escape hatch
	// and the reference point for the determinism tests.
	NoCache bool
	// Trace, when non-nil, receives cycle-level events from every machine in
	// the sweep (the sink is mutex-protected, so parallel sweeps may share
	// one; event interleaving across kernels then follows host scheduling,
	// but each run's own track is internally ordered). Simulated results are
	// byte-identical with tracing on or off.
	Trace *trace.Sink
}

// DefaultOptions returns the paper's machine configurations.
func DefaultOptions() Options {
	return Options{
		Scale:       1,
		VGIW:        core.DefaultConfig(),
		SIMT:        simt.DefaultConfig(),
		SGMF:        sgmf.DefaultConfig(),
		Power:       power.DefaultTable(),
		Parallelism: runtime.NumCPU(),
	}
}

// effectiveCache resolves the cache a run should consult: nil under
// -no-cache (a nil *ArtifactCache builds everything fresh).
func (o Options) effectiveCache() *ArtifactCache {
	if o.NoCache {
		return nil
	}
	return o.Cache
}

// withSweepCache equips a sweep-scoped options copy with a private cache
// when the caller did not supply one (and caching is not disabled).
func (o Options) withSweepCache() Options {
	if o.Cache == nil && !o.NoCache {
		o.Cache = NewArtifactCache()
	}
	return o
}

// workers resolves Parallelism for a sweep of n independent work items.
func (o Options) workers(n int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach runs fn(i) for every i in [0,n), fanning the calls across the
// options' worker pool. fn must be safe to call concurrently for distinct i.
// Once ctx is done workers stop claiming new items (items already started
// observe the cancellation themselves, through the simulators' own polls).
// Each item is a whole kernel simulation, so polling per item is coarse.
//
//vgiw:coarsepoll
func (o Options) forEach(ctx context.Context, n int, fn func(i int)) {
	w := o.workers(n)
	if w == 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for ; w > 0; w-- {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// KernelRun holds one benchmark's results on all machines.
type KernelRun struct {
	Spec   kernels.Spec
	Blocks int // block count after VGIW compilation (fabric-fitted)

	VGIW *core.Result
	SIMT *simt.Result
	SGMF *sgmf.Result // nil when the kernel is not SGMF-mappable

	EnergyVGIW power.Breakdown
	EnergySIMT power.Breakdown
	EnergySGMF power.Breakdown // valid when SGMF != nil

	// Elapsed is the wall-clock time this kernel's simulations took (all
	// machines, including validation). It is host timing, not a simulated
	// metric, so determinism checks must ignore it.
	Elapsed time.Duration
	// Stages splits Elapsed by pipeline stage. Artifact-build stages
	// (Instance/Compile/Place) are attributed to the run that actually
	// built the artifact; runs served from the cache report (near) zero
	// there. Host timing — determinism checks must ignore it.
	Stages StageTimes
}

// Speedup is Figure 7's metric: SIMT cycles / VGIW cycles. A degenerate
// zero-cycle run reports 0 rather than leaking +Inf/NaN into geomeans
// (Geomean skips non-positive values).
func (k *KernelRun) Speedup() float64 {
	if k.VGIW.Cycles == 0 {
		return 0
	}
	return float64(k.SIMT.Cycles) / float64(k.VGIW.Cycles)
}

// SpeedupVsSGMF is Figure 8's metric (0 when SGMF cannot run the kernel or
// the VGIW run is degenerate).
func (k *KernelRun) SpeedupVsSGMF() float64 {
	if k.SGMF == nil || k.VGIW.Cycles == 0 {
		return 0
	}
	return float64(k.SGMF.Cycles) / float64(k.VGIW.Cycles)
}

// LVCOverRF is Figure 3's metric: LVC accesses as a fraction of the
// baseline's register file accesses (both counted per word).
func (k *KernelRun) LVCOverRF() float64 {
	rf := k.SIMT.RFReads + k.SIMT.RFWrites
	if rf == 0 {
		return 0
	}
	return float64(k.VGIW.LVCLoads+k.VGIW.LVCStores) / float64(rf)
}

// EnergyEff is Figures 9/10's metric at system/die/core levels: the paper
// defines efficiency as work/energy, so the ratio over the baseline is
// E_baseline / E_vgiw.
func (k *KernelRun) EnergyEff(level string) float64 {
	var base, v float64
	switch level {
	case "core":
		base, v = k.EnergySIMT.CoreLevel(), k.EnergyVGIW.CoreLevel()
	case "die":
		base, v = k.EnergySIMT.DieLevel(), k.EnergyVGIW.DieLevel()
	default:
		base, v = k.EnergySIMT.SystemLevel(), k.EnergyVGIW.SystemLevel()
	}
	return power.Efficiency(base, v)
}

// EnergyEffVsSGMF is Figure 11's metric.
func (k *KernelRun) EnergyEffVsSGMF() float64 {
	if k.SGMF == nil {
		return 0
	}
	return power.Efficiency(k.EnergySGMF.SystemLevel(), k.EnergyVGIW.SystemLevel())
}

// RunOne executes one benchmark on all machines, validating each result.
// Shared artifacts (the workload, the per-architecture compile/place
// products and the baselines' validated results) come from opt's cache when
// one is set; every simulation runs against a private memory image, so
// results are byte-identical to an uncached run.
func RunOne(spec kernels.Spec, opt Options) (*KernelRun, error) {
	return RunOneCtx(context.Background(), spec, opt)
}

// RunOneCtx is RunOne with cooperative cancellation: ctx is threaded into
// every simulator's cycle loop, so a deadline or cancel preempts the run
// mid-simulation and RunOneCtx returns an error wrapping ctx.Err().
func RunOneCtx(ctx context.Context, spec kernels.Spec, opt Options) (*KernelRun, error) {
	start := time.Now()
	cache := opt.effectiveCache()
	out := &KernelRun{Spec: spec}
	if opt.Trace != nil {
		// Route the sweep's sink into every machine configuration (opt is a
		// by-value copy; artifact-cache keys exclude engine options, so a
		// traced run still shares compile/place artifacts).
		opt.VGIW.Engine.Trace = opt.Trace
		opt.SIMT.Trace = opt.Trace
		opt.SGMF.Engine.Trace = opt.Trace
	}

	w, wt, err := cache.workload(ctx, spec, opt.Scale)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.Name, err)
	}
	out.Stages.Add(wt)

	// VGIW.
	mv, err := core.NewMachine(opt.VGIW)
	if err != nil {
		return nil, err
	}
	prep, ct, err := cache.vgiwPrepared(ctx, w, opt.VGIW)
	if err != nil {
		return nil, fmt.Errorf("%s: vgiw compile: %w", spec.Name, err)
	}
	out.Stages.Add(ct)
	out.Blocks = len(prep.CK.Kernel.Blocks)
	sim0 := time.Now()
	global := w.Global()
	rv, err := mv.RunPreparedCtx(ctx, prep, w.Launch, global)
	if err != nil {
		return nil, fmt.Errorf("%s: vgiw: %w", spec.Name, err)
	}
	if err := w.Check(global); err != nil {
		return nil, fmt.Errorf("%s: vgiw output: %w", spec.Name, err)
	}
	out.Stages.Simulate += time.Since(sim0)
	out.VGIW = rv
	out.EnergyVGIW = power.VGIW(rv, opt.Power)

	// SIMT baseline (compiled without fabric-driven splitting, as a native
	// CUDA compile would be), simulated once per cache for its config.
	rs, st, err := cache.simtRun(ctx, w, opt.SIMT)
	if err != nil {
		return nil, err
	}
	out.Stages.Add(st)
	out.SIMT = rs
	out.EnergySIMT = power.SIMT(rs, opt.Power)

	// SGMF, when mappable.
	if spec.SGMF && !opt.SkipSGMF {
		rg, st, err := cache.sgmfRun(ctx, w, opt.SGMF)
		if err != nil {
			return nil, err
		}
		out.Stages.Add(st)
		out.SGMF = rg
		out.EnergySGMF = power.SGMF(rg, opt.Power)
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// RunMatrix executes the given kernel specs across the options' worker pool
// (each kernel internally runs on every machine). Runs share immutable
// artifacts through the sweep's cache but build private machines and memory
// images, so the results are identical to a serial (or -no-cache) sweep
// regardless of Parallelism.
//
// A failing kernel does not abort the sweep: RunMatrix returns the runs that
// completed (in spec order) together with the joined per-kernel errors, so
// callers can report which kernels failed and still use the rest.
func RunMatrix(specs []kernels.Spec, opt Options) ([]*KernelRun, error) {
	return RunMatrixCtx(context.Background(), specs, opt)
}

// RunMatrixCtx is RunMatrix with cooperative cancellation: once ctx is done
// the worker pool stops claiming kernels, in-flight runs are preempted inside
// their cycle loops, and the joined error includes ctx.Err() (check with
// errors.Is). Runs that completed before the cancellation are still returned.
func RunMatrixCtx(ctx context.Context, specs []kernels.Spec, opt Options) ([]*KernelRun, error) {
	opt = opt.withSweepCache()
	runs := make([]*KernelRun, len(specs))
	errs := make([]error, len(specs))
	opt.forEach(ctx, len(specs), func(i int) {
		runs[i], errs[i] = RunOneCtx(ctx, specs[i], opt)
	})
	out := make([]*KernelRun, 0, len(specs))
	for _, kr := range runs {
		if kr != nil {
			out = append(out, kr)
		}
	}
	err := errors.Join(errs...)
	if cerr := ctx.Err(); cerr != nil {
		// Kernels the pool never claimed have nil errs entries; surface the
		// cancellation itself exactly once.
		err = errors.Join(err, cerr)
	}
	return out, err
}

// RunAll executes the full registry.
func RunAll(opt Options) ([]*KernelRun, error) {
	return RunMatrix(kernels.All(), opt)
}

// SuiteResult is a full-registry sweep plus host-side performance metadata
// (wall clock, parallelism, allocation count) for the JSON export, so the
// simulator's own performance trajectory is regressable across PRs.
type SuiteResult struct {
	Runs        []*KernelRun
	WallClock   time.Duration
	Parallelism int    // workers actually used
	Mallocs     uint64 // heap allocations during the sweep (process-wide)

	// Stages is the per-stage host wall-clock summed over all runs (like
	// user time: under parallelism it exceeds WallClock). Artifact builds
	// are counted once, in the run that performed them.
	Stages StageTimes
	// Cache is the artifact cache's accounting over this sweep (zero under
	// -no-cache). When the caller shares one cache across several sweeps
	// the counters are deltas for this call.
	Cache CacheStats
	// Metrics is the unified metrics registry folded from every run
	// ("<kernel>/<backend>.<metric>" plus suite-level counters).
	Metrics *trace.Registry
}

// RunSuite executes the full registry and records the sweep's wall-clock
// time, per-stage split, cache accounting, and allocation count.
func RunSuite(opt Options) (*SuiteResult, error) {
	return RunSuiteCtx(context.Background(), opt)
}

// RunSuiteCtx is RunSuite with cooperative cancellation (see RunMatrixCtx
// for the cancellation contract).
func RunSuiteCtx(ctx context.Context, opt Options) (*SuiteResult, error) {
	opt = opt.withSweepCache()
	specs := kernels.All()
	cache := opt.effectiveCache()
	stats0 := cache.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	runs, err := RunMatrixCtx(ctx, specs, opt)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	out := &SuiteResult{
		Runs:        runs,
		WallClock:   wall,
		Parallelism: opt.workers(len(specs)),
		Mallocs:     m1.Mallocs - m0.Mallocs,
		Cache:       cache.Stats().sub(stats0),
	}
	for _, kr := range runs {
		out.Stages.Add(kr.Stages)
	}
	out.Metrics = CollectMetrics(runs)
	return out, err
}

// Geomean returns the geometric mean of positive values (zeros skipped).
func Geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
