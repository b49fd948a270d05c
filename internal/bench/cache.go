package bench

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vgiw/internal/compile"
	"vgiw/internal/core"
	"vgiw/internal/fabric"
	"vgiw/internal/kernels"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
)

// Tier identifies an artifact class for the cache's hit/miss accounting.
type Tier int

const (
	// TierWorkload: kernels.Workload (kernel IR build + input synthesis).
	TierWorkload Tier = iota
	// TierVGIW: VGIW compile + fabric place & route (core.Prepared).
	TierVGIW
	// TierSIMTRun: one validated SIMT baseline simulation (simt.Result).
	TierSIMTRun
	// TierSGMFRun: one validated SGMF baseline simulation (sgmf.Result).
	TierSGMFRun
	// TierVGIWRun: one validated VGIW simulation (core.Result).
	TierVGIWRun

	numTiers
)

func (t Tier) String() string {
	switch t {
	case TierWorkload:
		return "workload"
	case TierVGIW:
		return "vgiw"
	case TierSIMTRun:
		return "simt_run"
	case TierSGMFRun:
		return "sgmf_run"
	case TierVGIWRun:
		return "vgiw_run"
	}
	return "unknown"
}

// StageTimes splits harness host wall-clock by pipeline stage. Durations are
// summed across workers (like user time), so under parallelism they can
// exceed the sweep's wall clock. They are host telemetry, not simulated
// metrics — determinism checks must ignore them.
type StageTimes struct {
	Instance time.Duration // kernel IR build + input/memory-image synthesis
	Compile  time.Duration // compile.Compile/CompileFitted + SGMF translate
	Place    time.Duration // fabric place & route
	Simulate time.Duration // machine execution + output validation
}

// Add accumulates another sample into the receiver.
func (s *StageTimes) Add(o StageTimes) {
	s.Instance += o.Instance
	s.Compile += o.Compile
	s.Place += o.Place
	s.Simulate += o.Simulate
}

// CacheStats is a point-in-time snapshot of the cache's accounting: per-tier
// hit/miss counters. The build time a miss pays is in its run's Stages.
type CacheStats struct {
	Hits, Misses [numTiers]uint64
}

// HitsTotal sums hits across tiers.
func (s CacheStats) HitsTotal() uint64 {
	var n uint64
	for _, h := range s.Hits {
		n += h
	}
	return n
}

// MissesTotal sums misses across tiers.
func (s CacheStats) MissesTotal() uint64 {
	var n uint64
	for _, m := range s.Misses {
		n += m
	}
	return n
}

// sub returns the delta s - earlier, so callers sharing one cache across
// several sweeps can report per-sweep accounting.
func (s CacheStats) sub(earlier CacheStats) CacheStats {
	for t := Tier(0); t < numTiers; t++ {
		s.Hits[t] -= earlier.Hits[t]
		s.Misses[t] -= earlier.Misses[t]
	}
	return s
}

// ArtifactCache is a content-keyed, concurrency-safe artifact cache shared
// across the harness worker pool. Keys embed the kernel identity (registry
// name + scale) plus only the configuration fields that actually affect the
// artifact — a VGIW compile/place artifact is keyed by the fabric shape and
// split options but not by LVC capacity, so an LVC design-space sweep
// compiles and places each kernel exactly once.
//
// Three result tiers hold validated simulations. The baselines' are keyed
// by kernel identity plus the whole simt.Config or sgmf.Config minus its
// trace sink; no VGIW field is in either key, so a sweep over VGIW knobs
// simulates each kernel's baselines once. VGIW's is keyed by kernel identity
// plus core.EffectiveConfig, so LVC and CVT capacities that yield the same
// machine share one simulation. That key is the one a client can vary
// freely, so the VGIW tier holds at most maxVGIWRuns results and drops the
// oldest beyond that. The result tiers live in process memory only.
//
// The baselines have no build tier: they compile and place on their result
// tiers' miss paths. A result key holds every field their builds depend on,
// and no job spec varies the rest, so a build tier would hit only for traced
// runs and the SIMT scheduler ablation, whose rebuilds take well under a
// millisecond per kernel.
//
// Values are immutable shared artifacts (see kernels.Workload and
// core.Prepared for the per-type contracts; the result tiers hand every
// caller its own copy). Concurrent lookups of the same key share a single
// build (duplicate suppression), and later callers count as hits.
// A failed or cancelled build is never stored: its waiters retry, and the
// next caller builds again.
//
// A nil *ArtifactCache is valid and means "no sharing": every lookup builds
// a fresh artifact, which is the -no-cache escape hatch. Results are
// byte-identical either way — the builders are deterministic and runs only
// ever mutate private copies.
type ArtifactCache struct {
	mu      sync.Mutex
	entries map[any]*cacheEntry
	// vgiwRuns lists the stored TierVGIWRun keys, oldest first; it never
	// holds more than maxRuns.
	vgiwRuns []any
	maxRuns  int

	hits, misses [numTiers]atomic.Uint64
}

// cacheEntry is one key's build. done closes when the build returns; val
// and err are written before that and read only after it.
type cacheEntry struct {
	done chan struct{}
	val  any
	err  error
}

// maxVGIWRuns bounds the VGIW result tier, in results. The documented LVC
// sweep needs 34. A registry kernel's result holds 6 KB on average and
// 25 KB at most at scales 1–4, so a full tier stays within tens of MB.
const maxVGIWRuns = 1024

// NewArtifactCache creates an empty cache.
func NewArtifactCache() *ArtifactCache { return newArtifactCache(maxVGIWRuns) }

// newArtifactCache creates an empty cache whose VGIW result tier holds at
// most maxRuns results.
func newArtifactCache(maxRuns int) *ArtifactCache {
	return &ArtifactCache{entries: make(map[any]*cacheEntry), maxRuns: maxRuns}
}

// Stats snapshots the accounting counters.
func (c *ArtifactCache) Stats() CacheStats {
	var s CacheStats
	if c == nil {
		return s
	}
	for t := Tier(0); t < numTiers; t++ {
		s.Hits[t] = c.hits[t].Load()
		s.Misses[t] = c.misses[t].Load()
	}
	return s
}

// get resolves key, building at most once at a time per key across all
// workers. The first caller builds under its own ctx and counts as the miss;
// callers arriving meanwhile wait for it and count as hits when it succeeds.
// A waiter whose own ctx ends returns ctx.Err() at once. A failed build
// (a cancelled simulation included) is removed before its waiters wake, so
// each of them retries: it builds itself or waits on whoever does. It
// reports the artifact and the build's stage times (zero for hits: the
// caller paid nothing). The loop repeats only after a whole failed build,
// so its ctx check is coarse by construction.
//
//vgiw:coarsepoll
func (c *ArtifactCache) get(ctx context.Context, key any, tier Tier, build func(context.Context) (any, StageTimes, error)) (any, StageTimes, error) {
	if c == nil {
		return build(ctx)
	}
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &cacheEntry{done: make(chan struct{})}
			c.entries[key] = e
		}
		c.mu.Unlock()
		if !ok {
			return c.lead(ctx, key, tier, e, build)
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, StageTimes{}, ctx.Err()
		}
		if e.err == nil {
			c.hits[tier].Add(1)
			return e.val, StageTimes{}, nil
		}
	}
}

// lead runs the build for the entry it just installed, stores a success and
// withdraws a failure, then wakes the waiters. A stored VGIW result beyond
// the tier's bound drops the oldest one; callers holding that entry keep
// their value.
func (c *ArtifactCache) lead(ctx context.Context, key any, tier Tier, e *cacheEntry, build func(context.Context) (any, StageTimes, error)) (any, StageTimes, error) {
	c.misses[tier].Add(1)
	var st StageTimes
	e.val, st, e.err = build(ctx)
	c.mu.Lock()
	switch {
	case e.err != nil:
		delete(c.entries, key)
	case tier == TierVGIWRun:
		c.vgiwRuns = append(c.vgiwRuns, key)
		if len(c.vgiwRuns) > c.maxRuns {
			delete(c.entries, c.vgiwRuns[0])
			c.vgiwRuns = c.vgiwRuns[1:]
		}
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, st, e.err
}

// Cache keys. All components are comparable value types, so the key IS the
// content that determines the artifact: identical configurations collide
// into one entry, different ones cannot.
type (
	workloadKey struct {
		name  string
		scale int
	}
	vgiwKey struct {
		name           string
		scale          int
		fabric         fabric.Config
		replicationOff bool
		checked        bool
	}
	// The result tiers' configs have their trace sinks cleared: a sink
	// changes what a run emits, never what it computes.
	simtRunKey struct {
		name  string
		scale int
		cfg   simt.Config
	}
	sgmfRunKey struct {
		name  string
		scale int
		cfg   sgmf.Config
	}
	// vgiwRunKey's config is core.EffectiveConfig's.
	vgiwRunKey struct {
		name  string
		scale int
		cfg   core.Config
	}
)

// workload resolves the tier-2 artifact: one Spec.Build per (kernel, scale).
func (c *ArtifactCache) workload(ctx context.Context, spec kernels.Spec, scale int) (*kernels.Workload, StageTimes, error) {
	v, st, err := c.get(ctx, workloadKey{spec.Name, scale}, TierWorkload, func(context.Context) (any, StageTimes, error) {
		t0 := time.Now()
		w, err := kernels.NewWorkload(spec, scale)
		return w, StageTimes{Instance: time.Since(t0)}, err
	})
	if err != nil {
		return nil, st, err
	}
	return v.(*kernels.Workload), st, nil
}

// vgiwPrepared resolves the VGIW compile/place artifact. The key carries
// only the config fields compilation and placement depend on — fabric shape
// and replication — so sweeps over LVC/CVT/memory parameters share one
// artifact.
func (c *ArtifactCache) vgiwPrepared(ctx context.Context, w *kernels.Workload, cfg core.Config) (*core.Prepared, StageTimes, error) {
	key := vgiwKey{w.Spec.Name, w.Scale, cfg.Fabric, cfg.ReplicationOff, cfg.Checked}
	v, st, err := c.get(ctx, key, TierVGIW, func(context.Context) (any, StageTimes, error) {
		var st StageTimes
		m, err := core.NewMachine(cfg)
		if err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		ck, err := m.Compile(w.Kernel())
		st.Compile = time.Since(t0)
		if err != nil {
			return nil, st, err
		}
		t0 = time.Now()
		prep, err := m.Prepare(ck)
		st.Place = time.Since(t0)
		return prep, st, err
	})
	if err != nil {
		return nil, st, err
	}
	return v.(*core.Prepared), st, nil
}

// simtRun resolves the SIMT baseline's validated result for w under cfg.
// The miss path compiles (no fabric fitting, as a native CUDA compile
// would be), simulates on a private memory image and checks it against the
// host reference; the returned stage times are that build's when this
// caller ran it. Every caller gets its own copy of the result. A traced run
// (cfg.Trace set) always simulates and stores nothing: its events are the
// product.
func (c *ArtifactCache) simtRun(ctx context.Context, w *kernels.Workload, cfg simt.Config) (*simt.Result, StageTimes, error) {
	sim := func(ctx context.Context) (any, StageTimes, error) {
		t0 := time.Now()
		ck, err := compile.Compile(w.Kernel())
		st := StageTimes{Compile: time.Since(t0)}
		if err != nil {
			return nil, st, fmt.Errorf("%s: simt compile: %w", w.Spec.Name, err)
		}
		t0 = time.Now()
		global := w.Global()
		r, err := simt.NewMachine(cfg).RunCtx(ctx, ck, w.Launch, global)
		if err != nil {
			return nil, st, fmt.Errorf("%s: simt: %w", w.Spec.Name, err)
		}
		if err := w.Check(global); err != nil {
			return nil, st, fmt.Errorf("%s: simt output: %w", w.Spec.Name, err)
		}
		st.Simulate = time.Since(t0)
		return r, st, nil
	}
	results := c
	if cfg.Trace != nil {
		results = nil
	}
	key := cfg
	key.Trace = nil
	v, st, err := results.get(ctx, simtRunKey{w.Spec.Name, w.Scale, key}, TierSIMTRun, sim)
	if err != nil {
		return nil, StageTimes{}, err
	}
	r := *v.(*simt.Result)
	return &r, st, nil
}

// sgmfRun is simtRun for the SGMF baseline: its miss path translates and
// places the whole kernel before it simulates, and a sink in
// cfg.Engine.Trace makes the run always simulate. Every caller gets its own
// copy of the result.
func (c *ArtifactCache) sgmfRun(ctx context.Context, w *kernels.Workload, cfg sgmf.Config) (*sgmf.Result, StageTimes, error) {
	sim := func(ctx context.Context) (any, StageTimes, error) {
		var st StageTimes
		m, err := sgmf.NewMachine(cfg)
		if err != nil {
			return nil, st, fmt.Errorf("%s: sgmf: %w", w.Spec.Name, err)
		}
		k := w.Kernel()
		t0 := time.Now()
		g, err := m.Translate(k)
		st.Compile = time.Since(t0)
		if err != nil {
			return nil, st, fmt.Errorf("%s: sgmf: %w", w.Spec.Name, err)
		}
		t0 = time.Now()
		p, err := m.PlaceGraph(k.Name, g)
		st.Place = time.Since(t0)
		if err != nil {
			return nil, st, fmt.Errorf("%s: sgmf: %w", w.Spec.Name, err)
		}
		t0 = time.Now()
		global := w.Global()
		r, err := m.RunMappedCtx(ctx, &sgmf.Mapped{Kernel: k, Placement: p}, w.Launch, global)
		if err != nil {
			return nil, st, fmt.Errorf("%s: sgmf: %w", w.Spec.Name, err)
		}
		if err := w.Check(global); err != nil {
			return nil, st, fmt.Errorf("%s: sgmf output: %w", w.Spec.Name, err)
		}
		st.Simulate = time.Since(t0)
		return r, st, nil
	}
	results := c
	if cfg.Engine.Trace != nil {
		results = nil
	}
	key := cfg
	key.Engine.Trace = nil
	v, st, err := results.get(ctx, sgmfRunKey{w.Spec.Name, w.Scale, key}, TierSGMFRun, sim)
	if err != nil {
		return nil, StageTimes{}, err
	}
	r := *v.(*sgmf.Result)
	return &r, st, nil
}

// vgiwRun resolves the VGIW machine's validated result for w under cfg. It
// places through the VGIW compile/place tier (always: the key depends on the
// compiled kernel), then looks the result up under cfg's effective config.
// The miss path builds the machine, simulates on a private memory image and
// checks it against the host reference. Every caller gets its own copy,
// with its own ReplicasOf and BlockRuns slices. A traced or
// profiled run always simulates and stores nothing: its events or per-block
// stats are the product.
func (c *ArtifactCache) vgiwRun(ctx context.Context, w *kernels.Workload, cfg core.Config) (*core.Result, StageTimes, error) {
	prep, st, err := c.vgiwPrepared(ctx, w, cfg)
	if err != nil {
		return nil, st, fmt.Errorf("%s: vgiw compile: %w", w.Spec.Name, err)
	}
	sim := func(ctx context.Context) (any, StageTimes, error) {
		m, err := core.NewMachine(cfg)
		if err != nil {
			return nil, StageTimes{}, err
		}
		t0 := time.Now()
		global := w.Global()
		r, err := m.RunPreparedCtx(ctx, prep, w.Launch, global)
		if err != nil {
			return nil, StageTimes{}, fmt.Errorf("%s: vgiw: %w", w.Spec.Name, err)
		}
		if err := w.Check(global); err != nil {
			return nil, StageTimes{}, fmt.Errorf("%s: vgiw output: %w", w.Spec.Name, err)
		}
		return r, StageTimes{Simulate: time.Since(t0)}, nil
	}
	results := c
	if cfg.Engine.Trace != nil || cfg.Engine.Profile {
		results = nil
	}
	key := vgiwRunKey{w.Spec.Name, w.Scale, core.EffectiveConfig(cfg, prep, w.Launch)}
	v, rt, err := results.get(ctx, key, TierVGIWRun, sim)
	if err != nil {
		return nil, StageTimes{}, err
	}
	st.Add(rt)
	r := *v.(*core.Result)
	r.ReplicasOf = slices.Clone(r.ReplicasOf)
	r.BlockRuns = slices.Clone(r.BlockRuns)
	return &r, st, nil
}
