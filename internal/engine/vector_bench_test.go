package engine

import (
	"context"
	"testing"
)

// benchEngine streams the hot-path thread vector through a warm engine under
// the given options and reports the threads/s column the BENCH_engine.json
// ledger records beside ns/op.
func benchEngine(b *testing.B, opt Options) {
	e, p, threads, hooks := hotPathSetup(b, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunVectorCtx(context.Background(), p, threads, 0, hooks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(threads)*b.N)/b.Elapsed().Seconds(), "threads/s")
}

// BenchmarkEngineVector pits the batched (default) executor against the
// scalar reference walk on the identical scenario, same process, same warmed
// memory system shape — the honest relative measurement the BENCH_engine.json
// trajectory tracks. Both sides must report 0 allocs/op; the scalar sub also
// keeps the reference walk's perf visible so a regression there (it remains
// the exactness oracle and the tracing path) is caught too.
func BenchmarkEngineVector(b *testing.B) {
	b.Run("batched", func(b *testing.B) { benchEngine(b, Options{}) })
	b.Run("scalar", func(b *testing.B) { benchEngine(b, Options{Scalar: true}) })
}

// BenchmarkEngineFast measures the functional-only mode (Options.Fast): no
// cycle accounting, no memory-system timing — the throughput ceiling for
// result validation and fuzzing sweeps.
func BenchmarkEngineFast(b *testing.B) {
	benchEngine(b, Options{Fast: true})
}
