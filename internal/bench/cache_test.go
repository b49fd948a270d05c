package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vgiw/internal/core"
	"vgiw/internal/kernels"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// raceEnabled is set in -race builds (race_test.go), where the simulators
// run several times slower.
var raceEnabled bool

// lvcTestSizes/lvcTestKernels are a small but real slice of the CLI's LVC
// design-space sweep.
var (
	lvcTestSizes   = []int{16, 64, 256}
	lvcTestKernels = []string{"hotspot.kernel", "nw.needle1"}
)

// lvcFingerprint renders an LVC sweep to CSV for byte comparison.
func lvcFingerprint(t *testing.T, opt Options) string {
	t.Helper()
	tab, err := LVCSweep(opt, lvcTestSizes, lvcTestKernels)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestArtifactCacheDeterminism is the cache's safety property: a sweep
// served from shared artifacts must be byte-identical to one that rebuilds
// everything per run, serial or parallel. Four full-suite sweeps (cache
// on/off x serial/8 workers), the LVC sweep both ways and a config matrix
// whose cells share baseline results must all agree on every simulated
// figure. Run with -race: the cached sweeps share Workload, Prepared,
// Mapped and baseline-result values across workers, so this test is also
// the immutability contract's race detector harness.
func TestArtifactCacheDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("four full-suite sweeps")
	}
	sweep := func(cache *ArtifactCache, parallelism int) string {
		opt := DefaultOptions()
		opt.Cache = cache
		opt.Parallelism = parallelism
		runs, err := RunAll(opt)
		if err != nil {
			t.Fatal(err)
		}
		return reportFingerprint(t, runs)
	}
	ref := sweep(nil, 1) // uncached serial: the ground truth
	for _, c := range []struct {
		name        string
		cache       *ArtifactCache
		parallelism int
	}{
		{"cached-serial", NewArtifactCache(), 1},
		{"cached-parallel8", NewArtifactCache(), 8},
		{"nocache-parallel8", nil, 8},
	} {
		if got := sweep(c.cache, c.parallelism); got != ref {
			t.Errorf("%s sweep diverged from the uncached serial sweep:\nwant %s\ngot  %s", c.name, ref, got)
		}
	}

	lvcOpt := DefaultOptions()
	lvcOpt.Parallelism = 1
	lvcRef := lvcFingerprint(t, lvcOpt)
	lvcOpt.Cache = NewArtifactCache()
	lvcOpt.Parallelism = 8
	if got := lvcFingerprint(t, lvcOpt); got != lvcRef {
		t.Errorf("cached parallel LVC sweep diverged:\nwant %s\ngot  %s", lvcRef, got)
	}

	// A config matrix shares baseline results across configs that differ
	// only in VGIW knobs; each config's runs must still match uncached ones.
	matrixRef := configMatrixFingerprint(t, nil, 1)
	for _, parallelism := range []int{1, 8} {
		if got := configMatrixFingerprint(t, NewArtifactCache(), parallelism); got != matrixRef {
			t.Errorf("cached config matrix (%d workers) diverged:\nwant %s\ngot  %s", parallelism, matrixRef, got)
		}
	}
}

// configMatrixFingerprint runs kernels x {LVC size, CVT bits, VGIW L1 write
// policy}, every cell through RunOneCtx on one cache (none when cache is nil)
// fanned across parallelism workers, and renders each config's runs in
// canonical JSON form.
func configMatrixFingerprint(t *testing.T, cache *ArtifactCache, parallelism int) string {
	t.Helper()
	names := []string{"hotspot.kernel", "nn.euclid", "pf.normalize_weights"}
	var cfgs []Options
	for _, kb := range []int{16, 256} {
		for _, bits := range []int{1 << 12, 1 << 16} {
			for _, policy := range []mem.WritePolicy{mem.WriteBack, mem.WriteThrough} {
				opt := DefaultOptions()
				opt.VGIW.LVC.SizeBytes = kb << 10
				opt.VGIW.CVTCapacityBits = bits
				opt.VGIW.Mem.L1.Policy = policy
				cfgs = append(cfgs, opt)
			}
		}
	}
	pool := Options{Parallelism: parallelism}
	runs := make([]*KernelRun, len(cfgs)*len(names))
	errs := make([]error, len(runs))
	pool.ForEach(len(runs), func(i int) {
		spec, ok := kernels.ByName(names[i%len(names)])
		if !ok {
			errs[i] = errors.New(names[i%len(names)] + " not registered")
			return
		}
		opt := cfgs[i/len(names)]
		opt.Cache = cache
		runs[i], errs[i] = RunOneCtx(context.Background(), spec, opt)
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := range cfgs {
		b, err := json.Marshal(BuildJSON(runs[i*len(names):(i+1)*len(names)], 1).Canonical())
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestLVCSweepCompilesOncePerKernel pins the cache-key derivation: the VGIW
// compile/place artifact's key excludes the LVC capacity, so an LVC sweep
// must miss exactly once per kernel and hit for every remaining size.
func TestLVCSweepCompilesOncePerKernel(t *testing.T) {
	opt := DefaultOptions()
	opt.Parallelism = 4
	opt.Cache = NewArtifactCache()
	if _, err := LVCSweep(opt, lvcTestSizes, lvcTestKernels); err != nil {
		t.Fatal(err)
	}
	stats := opt.Cache.Stats()
	nk, cells := uint64(len(lvcTestKernels)), uint64(len(lvcTestKernels)*len(lvcTestSizes))
	if got := stats.Misses[TierVGIW]; got != nk {
		t.Errorf("TierVGIW misses = %d, want %d (one compile+place per kernel)", got, nk)
	}
	if got := stats.Hits[TierVGIW]; got != cells-nk {
		t.Errorf("TierVGIW hits = %d, want %d (every other cell served from cache)", got, cells-nk)
	}
	if got := stats.Misses[TierWorkload]; got != nk {
		t.Errorf("TierWorkload misses = %d, want %d", got, nk)
	}
}

// TestArtifactCacheSingleflight: concurrent lookups of one key must share a
// single build, with the builder counted as the miss and everyone else as
// hits. Run with -race.
func TestArtifactCacheSingleflight(t *testing.T) {
	c := NewArtifactCache()
	var builds atomic.Int32
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.get(context.Background(), "key", TierWorkload, func(context.Context) (any, StageTimes, error) {
				builds.Add(1)
				return 42, StageTimes{}, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("get = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	stats := c.Stats()
	if stats.Misses[TierWorkload] != 1 || stats.Hits[TierWorkload] != callers-1 {
		t.Errorf("accounting = %d misses / %d hits, want 1 / %d",
			stats.Misses[TierWorkload], stats.Hits[TierWorkload], callers-1)
	}
}

// TestNilCacheBuildsFresh: a nil cache is the -no-cache path — every lookup
// builds, every result lookup simulates, nothing is shared, and Stats stays
// zero.
func TestNilCacheBuildsFresh(t *testing.T) {
	var c *ArtifactCache
	var builds int
	for i := 0; i < 3; i++ {
		if _, _, err := c.get(context.Background(), "key", TierWorkload, func(context.Context) (any, StageTimes, error) {
			builds++
			return nil, StageTimes{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 3 {
		t.Errorf("nil cache ran builder %d times, want 3 (no sharing)", builds)
	}

	w := testWorkload(t, "nn.euclid")
	opt := DefaultOptions()
	for i := 0; i < 2; i++ {
		rs, st, err := c.simtRun(context.Background(), w, opt.SIMT)
		if err != nil {
			t.Fatal(err)
		}
		rg, gt, err := c.sgmfRun(context.Background(), w, opt.SGMF)
		if err != nil {
			t.Fatal(err)
		}
		rv, vt, err := c.vgiwRun(context.Background(), w, opt.VGIW)
		if err != nil {
			t.Fatal(err)
		}
		// Only a caller that simulated pays simulation time.
		if st.Simulate <= 0 || gt.Simulate <= 0 || vt.Simulate <= 0 || rs.Cycles == 0 || rg.Cycles == 0 || rv.Cycles == 0 {
			t.Errorf("nil cache call %d did not simulate: simt %v (%d cycles), sgmf %v (%d cycles), vgiw %v (%d cycles)",
				i, st.Simulate, rs.Cycles, gt.Simulate, rg.Cycles, vt.Simulate, rv.Cycles)
		}
	}
	if s := c.Stats(); s.HitsTotal() != 0 || s.MissesTotal() != 0 {
		t.Errorf("nil cache reported accounting: %+v", s)
	}
}

// testWorkload builds one registry kernel's workload at scale 1.
func testWorkload(t *testing.T, name string) *kernels.Workload {
	t.Helper()
	spec, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	w, err := kernels.NewWorkload(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBaselineRunsOncePerKernel pins the result tiers' key derivation: no
// VGIW field is in a baseline's key, so cells that differ only in LVC
// capacity simulate each kernel's SIMT baseline once and its SGMF baseline
// (nn.euclid is mappable, hotspot.kernel is not) once. The cells run
// concurrently on one cache; run with -race.
func TestBaselineRunsOncePerKernel(t *testing.T) {
	names := []string{"hotspot.kernel", "nn.euclid"}
	cells := len(names) * len(lvcTestSizes)
	cache := NewArtifactCache()
	runs := make([]*KernelRun, cells)
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		spec, ok := kernels.ByName(names[i/len(lvcTestSizes)])
		if !ok {
			t.Fatalf("%s not registered", names[i/len(lvcTestSizes)])
		}
		opt := DefaultOptions()
		opt.Cache = cache
		opt.VGIW.LVC.SizeBytes = lvcTestSizes[i%len(lvcTestSizes)] << 10
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kr, err := RunOneCtx(context.Background(), spec, opt)
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = kr
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	stats := cache.Stats()
	if got := stats.Misses[TierSIMTRun]; got != 2 {
		t.Errorf("TierSIMTRun misses = %d, want 2 (one SIMT simulation per kernel)", got)
	}
	if got := stats.Hits[TierSIMTRun]; got != uint64(cells-2) {
		t.Errorf("TierSIMTRun hits = %d, want %d", got, cells-2)
	}
	if got := stats.Misses[TierSGMFRun]; got != 1 {
		t.Errorf("TierSGMFRun misses = %d, want 1 (nn.euclid only)", got)
	}
	if got := stats.Hits[TierSGMFRun]; got != uint64(len(lvcTestSizes)-1) {
		t.Errorf("TierSGMFRun hits = %d, want %d", got, len(lvcTestSizes)-1)
	}
	// The runs that missed carry the build times: every stage was paid
	// once per kernel.
	var paid StageTimes
	for _, kr := range runs {
		paid.Add(kr.Stages)
	}
	if paid.Instance <= 0 || paid.Compile <= 0 || paid.Place <= 0 || paid.Simulate <= 0 {
		t.Errorf("miss stage times not recorded in the runs: %+v", paid)
	}
	// Every cell holds its own copy of the shared results.
	for i := 1; i < len(lvcTestSizes); i++ {
		a, b := runs[len(lvcTestSizes)], runs[len(lvcTestSizes)+i]
		if a.SIMT == b.SIMT || a.SGMF == b.SGMF {
			t.Fatalf("cells share a result pointer")
		}
		if a.SIMT.Cycles != b.SIMT.Cycles || a.SGMF.Cycles != b.SGMF.Cycles {
			t.Errorf("shared baseline results differ across cells")
		}
		a.SGMF.Ops[0]++
		if a.SGMF.Ops[0] == b.SGMF.Ops[0] {
			t.Errorf("cells share one SGMF Ops array")
		}
		a.SGMF.Ops[0]--
	}
}

// doneSignal is a context that reports the first call to Done: get asks for
// it only when it waits on another caller's build.
type doneSignal struct {
	context.Context
	asked chan struct{}
	once  sync.Once
}

func (d *doneSignal) Done() <-chan struct{} {
	d.once.Do(func() { close(d.asked) })
	return d.Context.Done()
}

// TestResultTierLeaderCancelled: a cancelled simulation is never stored. A
// caller waiting on it simulates itself and succeeds; with no waiter the
// tier holds nothing and the next call misses. The second half drives a
// real SIMT run under a cancelled context. Run with -race.
func TestResultTierLeaderCancelled(t *testing.T) {
	c := NewArtifactCache()
	leaderCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.get(leaderCtx, "k", TierSIMTRun, func(ctx context.Context) (any, StageTimes, error) {
			close(started)
			<-ctx.Done()
			return nil, StageTimes{}, ctx.Err()
		})
		leaderErr <- err
	}()
	<-started
	waiterCtx := &doneSignal{Context: context.Background(), asked: make(chan struct{})}
	waiterVal := make(chan any, 1)
	go func() {
		v, _, err := c.get(waiterCtx, "k", TierSIMTRun, func(context.Context) (any, StageTimes, error) {
			return 42, StageTimes{}, nil
		})
		if err != nil {
			t.Error(err)
		}
		waiterVal <- v
	}()
	select {
	case <-waiterCtx.asked: // the waiter is blocked on the leader's build
	case <-time.After(30 * time.Second):
		t.Fatal("the second caller never waited on the running leader")
	}
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case v := <-waiterVal:
		if v != 42 {
			t.Fatalf("waiter got %v, want its own simulation's 42", v)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the waiter never returned after its leader was cancelled")
	}
	if s := c.Stats(); s.Misses[TierSIMTRun] != 2 || s.Hits[TierSIMTRun] != 0 {
		t.Errorf("accounting = %d misses / %d hits, want 2 / 0 (the waiter simulated)",
			s.Misses[TierSIMTRun], s.Hits[TierSIMTRun])
	}

	c = NewArtifactCache()
	w := testWorkload(t, "hotspot.kernel")
	cfg := DefaultOptions().SIMT
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.simtRun(ctx, w, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simtRun err = %v, want context.Canceled", err)
	}
	c.mu.Lock()
	_, held := c.entries[simtRunKey{w.Spec.Name, w.Scale, cfg}]
	c.mu.Unlock()
	if held {
		t.Fatal("the tier holds a cancelled simulation")
	}
	for i, wantMisses := range []uint64{2, 2} {
		if _, _, err := c.simtRun(context.Background(), w, cfg); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().Misses[TierSIMTRun]; got != wantMisses {
			t.Errorf("call %d after the cancellation: %d misses, want %d", i, got, wantMisses)
		}
	}

	// The same for a VGIW simulation, which must also stay out of the
	// tier's bound.
	vcfg := DefaultOptions().VGIW
	if _, _, err := c.vgiwRun(ctx, w, vcfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled vgiwRun err = %v, want context.Canceled", err)
	}
	if n, runs := vgiwRunEntries(c); n != 0 || runs != 0 {
		t.Fatalf("the tier holds a cancelled simulation: %d entries, %d in its bound", n, runs)
	}
	if _, _, err := c.vgiwRun(context.Background(), w, vcfg); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses[TierVGIWRun]; got != 2 {
		t.Errorf("VGIW call after the cancellation: %d misses, want 2", got)
	}
}

// vgiwRunEntries counts the VGIW result tier's entries and the keys its
// bound tracks.
func vgiwRunEntries(c *ArtifactCache) (entries, bounded int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if _, ok := k.(vgiwRunKey); ok {
			entries++
		}
	}
	return entries, len(c.vgiwRuns)
}

// TestVGIWRunTierBound pushes more distinct effective configs than the
// bound through one cache: the tier keeps the newest bound results, and an
// evicted key simulates again, to an identical Result.
func TestVGIWRunTierBound(t *testing.T) {
	if got := NewArtifactCache().maxRuns; got != maxVGIWRuns {
		t.Fatalf("NewArtifactCache bounds the VGIW tier at %d, want %d", got, maxVGIWRuns)
	}
	const bound = 3
	c := newArtifactCache(bound)
	w := testWorkload(t, "nn.euclid")
	ctx := context.Background()
	cfgs := make([]core.Config, bound+2)
	first := make([]*core.Result, len(cfgs))
	for i := range cfgs {
		cfgs[i] = DefaultOptions().VGIW
		cfgs[i].Mem.L1.HitLat += int64(i) // distinct machines
		r, _, err := c.vgiwRun(ctx, w, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		first[i] = r
		if n, runs := vgiwRunEntries(c); n != min(i+1, bound) || runs != n {
			t.Fatalf("after %d configs the tier holds %d entries (%d bounded), want %d", i+1, n, runs, min(i+1, bound))
		}
	}
	if first[0].Cycles == first[len(first)-1].Cycles {
		t.Fatal("the configs do not make distinct machines")
	}
	// The newest results are held; the oldest was dropped and simulates
	// again, to an identical result.
	if _, _, err := c.vgiwRun(ctx, w, cfgs[len(cfgs)-1]); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits[TierVGIWRun] != 1 || s.Misses[TierVGIWRun] != uint64(len(cfgs)) {
		t.Fatalf("accounting = %d hits / %d misses, want 1 / %d", s.Hits[TierVGIWRun], s.Misses[TierVGIWRun], len(cfgs))
	}
	again, _, err := c.vgiwRun(ctx, w, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses[TierVGIWRun] != uint64(len(cfgs)+1) {
		t.Errorf("the evicted config did not simulate again: %d misses, want %d", s.Misses[TierVGIWRun], len(cfgs)+1)
	}
	if !reflect.DeepEqual(again, first[0]) {
		t.Errorf("re-simulated result differs: %d cycles, first %d", again.Cycles, first[0].Cycles)
	}
	if n, runs := vgiwRunEntries(c); n != bound || runs != bound {
		t.Errorf("the tier holds %d entries (%d bounded), want %d", n, runs, bound)
	}
}

// TestResultTierWaiterCancelled: a waiter whose own context ends returns its
// error at once instead of blocking on another caller's simulation, which
// runs on and is stored.
func TestResultTierWaiterCancelled(t *testing.T) {
	c := NewArtifactCache()
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.get(context.Background(), "k", TierSGMFRun, func(context.Context) (any, StageTimes, error) {
			close(started)
			<-release
			return 7, StageTimes{}, nil
		})
		leaderDone <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.get(ctx, "k", TierSGMFRun, func(context.Context) (any, StageTimes, error) {
			t.Error("a waiter with a live leader must not simulate")
			return nil, StageTimes{}, nil
		})
		waiterErr <- err
	}()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the cancelled waiter blocked on the running leader")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if v, _, err := c.get(context.Background(), "k", TierSGMFRun, func(context.Context) (any, StageTimes, error) {
		return nil, StageTimes{}, errors.New("the leader's result was not stored")
	}); err != nil || v != 7 {
		t.Errorf("stored result = %v, %v; want 7", v, err)
	}
}

// TestTracedRunAlwaysSimulates: a traced run's events are its product, so
// it simulates every machine even when an untraced run already filled the
// result tiers, and stores nothing. So does a profiled VGIW run, whose
// per-block stats are its product.
func TestTracedRunAlwaysSimulates(t *testing.T) {
	spec, ok := kernels.ByName("nn.euclid")
	if !ok {
		t.Fatal("nn.euclid not registered")
	}
	opt := DefaultOptions()
	opt.Cache = NewArtifactCache()
	if _, err := RunOneCtx(context.Background(), spec, opt); err != nil {
		t.Fatal(err)
	}
	opt.Trace = trace.NewSink(trace.CatSIMT | trace.CatSGMF | trace.CatVGIW)
	if _, err := RunOneCtx(context.Background(), spec, opt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := opt.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, proc := range []string{spec.Name + "/vgiw", spec.Name + "/simt", spec.Name + "/sgmf"} {
		if !strings.Contains(buf.String(), `"`+proc+`"`) {
			t.Errorf("traced run after a cached one has no %q process", proc)
		}
	}
	if s := opt.Cache.Stats(); s.Hits[TierSIMTRun] != 0 || s.Hits[TierSGMFRun] != 0 || s.Hits[TierVGIWRun] != 0 {
		t.Errorf("traced run was served from the result tiers: %+v", s)
	}

	opt.Trace = nil
	opt.VGIW.Engine.Profile = true
	kr, err := RunOneCtx(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(kr.VGIW.BlockRuns) == 0 || kr.VGIW.BlockRuns[0].Stats == nil {
		t.Error("profiled run has no per-block stats")
	}
	if s := opt.Cache.Stats(); s.Hits[TierVGIWRun] != 0 || s.Misses[TierVGIWRun] != 1 {
		t.Errorf("profiled run went through the VGIW tier: %d hits / %d misses, want 0 / 1",
			s.Hits[TierVGIWRun], s.Misses[TierVGIWRun])
	}
	if n, runs := vgiwRunEntries(opt.Cache); n != 1 || runs != 1 {
		t.Errorf("the VGIW tier holds %d entries (%d bounded) after traced and profiled runs, want the untraced run's 1", n, runs)
	}
}

// BenchmarkSuiteColdVsWarm is the perf guard for the artifact cache: "cold"
// rebuilds every artifact per run (no cache), "warm" serves every run from
// a persistent primed cache. The gap between them is the compile/place/
// workload-synthesis cost the cache removes from sweep iteration time.
func BenchmarkSuiteColdVsWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		opt := DefaultOptions()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunAll(opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		opt := DefaultOptions()
		opt.Cache = NewArtifactCache()
		if _, err := RunAll(opt); err != nil { // prime
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunAll(opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestVGIWRunTierExact is the VGIW result tier's safety property: a result
// served under an effective config must equal a fresh run of the caller's
// own config. Every registry kernel runs at scale 1 over LVC sizes that
// cover the CTA-floor eviction regime (the tile's live values overflow a
// small LVC) and set counts that are not powers of two, two CVT budgets and
// both LVC write policies, all through one cache. Sizes ascend within each
// (kernel, budget, policy), so a size that can evict is looked up before a
// conflict-free size with the same tile: if the key dropped the capacity of
// an LVC that evicts, the later size would be served the wrong run. The
// kernels fan out across the CPUs; under -race the grid keeps two sizes and
// one budget.
func TestVGIWRunTierExact(t *testing.T) {
	if testing.Short() {
		t.Skip("about a thousand VGIW simulations")
	}
	sizesKB := []int{1, 2, 3, 4, 12, 16, 17, 48, 100, 256}
	budgets := []int{1 << 12, 1 << 16}
	if raceEnabled {
		// hotspot.kernel's LVC evicts at 4 KB but not at 16, at one tile.
		sizesKB, budgets = []int{4, 16}, budgets[1:]
	}
	ctx := context.Background()
	c := NewArtifactCache()
	specs := kernels.All()
	var configs atomic.Int64
	Options{}.ForEach(len(specs), func(i int) {
		spec := specs[i]
		w, _, err := c.workload(ctx, spec, 1)
		if err != nil {
			t.Error(err)
			return
		}
		for _, bits := range budgets {
			for _, policy := range []mem.WritePolicy{mem.WriteBack, mem.WriteThrough} {
				for _, kb := range sizesKB {
					cfg := core.DefaultConfig()
					cfg.CVTCapacityBits = bits
					cfg.LVC.Policy = policy
					cfg.LVC.SizeBytes = kb << 10
					got, _, err := c.vgiwRun(ctx, w, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					prep, _, err := c.vgiwPrepared(ctx, w, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					m, err := core.NewMachine(cfg)
					if err != nil {
						t.Error(err)
						return
					}
					want, err := m.RunPreparedCtx(context.Background(), prep, w.Launch, w.Global())
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s, %d CVT bits, LVC %v %d KB: the tier served %d cycles, a fresh run gives %d",
							spec.Name, bits, policy, kb, got.Cycles, want.Cycles)
					}
					configs.Add(1)
				}
			}
		}
	})
	s := c.Stats()
	t.Logf("%d configs: %d VGIW simulations, %d tier hits", configs.Load(), s.Misses[TierVGIWRun], s.Hits[TierVGIWRun])
	if s.Hits[TierVGIWRun] == 0 {
		t.Error("no config was served from the tier")
	}
}
