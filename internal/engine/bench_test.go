package engine

import (
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// hotPathSetup builds the steady-state scenario shared by the hot-path
// benchmark and the zero-alloc guard: a one-block load+store kernel, placed
// once, with a warm engine whose arenas already fit the placement.
func hotPathSetup(tb testing.TB, opt Options) (*Engine, *fabric.Placement, []int, *Hooks) {
	tb.Helper()
	bld := kir.NewBuilder("hotpath")
	bld.SetParams(1)
	bld.SetBlock(bld.NewBlock("entry"))
	addr := bld.Add(bld.Param(0), bld.Tid())
	v := bld.Load(addr, 0)
	bld.Store(addr, 0, bld.FAdd(v, v))
	bld.Ret()
	k := bld.MustBuild()

	grid, err := fabric.NewGrid(fabric.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	ck, err := compile.Compile(k)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := fabric.Place(grid, ck.DFGs[0], 2)
	if err != nil {
		tb.Fatal(err)
	}
	const n = 512
	launch := kir.Launch1D(n/32, 32, 0)
	env, err := NewDataEnv(k, launch, make([]uint32, n), mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
	if err != nil {
		tb.Fatal(err)
	}
	hooks := env.Hooks()
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	e := New(grid, opt)
	// Warm-up runs: the first grows the per-unit arenas to this placement's
	// size; a couple more let the memory system's MSHR slab sizes settle.
	// (Those slabs still double occasionally as simulated time advances, so
	// a single iteration can observe one allocation; benchmark over enough
	// iterations to amortize it — the Makefile uses -benchtime 100x.)
	for i := 0; i < 3; i++ {
		if _, err := e.RunVector(p, threads, 0, hooks); err != nil {
			tb.Fatal(err)
		}
	}
	return e, p, threads, hooks
}

// BenchmarkEngineHotPath streams a thread vector through a reused engine —
// the steady state of a kernel run, where every block execution revisits the
// same placement. After the first run sizes the engine's arenas, RunVector
// must not allocate: the allocs/op report is the regression guard. The
// filtered-sink variant pins the tracing overhead contract: a sink whose mask
// excludes CatEngine must also cost 0 allocs/op.
func BenchmarkEngineHotPath(b *testing.B) {
	b.Run("no-sink", func(b *testing.B) { benchEngine(b, Options{}) })
	b.Run("filtered-sink", func(b *testing.B) {
		benchEngine(b, Options{Trace: trace.NewSink(trace.CatVGIW)})
	})
}

// TestEngineHotPathZeroAllocDisabledSink enforces the tracing overhead
// contract as a hard failure (the benchmark only reports): with no sink, and
// with a sink filtered away from CatEngine, steady-state RunVector must have
// no unconditional per-op allocation. The memory model's MSHR window
// (mem.Outstanding) legitimately grows on rare runs as simulated time
// advances (a mem.SlotAlloc never grows: it takes its fixed-size ring at
// most once, during the warm-up), so the guard takes the minimum over
// several rounds: if any round is alloc-free, the disabled-sink path itself
// costs nothing, and only an every-op allocation — which is what an Emit on
// the hot path would be — can fail it.
func TestEngineHotPathZeroAllocDisabledSink(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"no-sink", Options{}},
		{"filtered-sink", Options{Trace: trace.NewSink(trace.CatVGIW)}},
		{"scalar", Options{Scalar: true}},
		{"fast", Options{Fast: true}},
	} {
		e, p, threads, hooks := hotPathSetup(t, tc.opt)
		min := -1.0
		for round := 0; round < 5; round++ {
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := e.RunVector(p, threads, 0, hooks); err != nil {
					t.Fatal(err)
				}
			})
			if min < 0 || allocs < min {
				min = allocs
			}
		}
		if min != 0 {
			t.Errorf("%s: RunVector allocates ≥%v/op on every round, want an alloc-free steady state", tc.name, min)
		}
	}
}
