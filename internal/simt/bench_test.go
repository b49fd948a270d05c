package simt

import (
	"context"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/kernels"
)

// BenchmarkSIMTRun is the SIMT layer's ledger row: one op simulates every
// registry kernel at scale 1 under the default configuration. Workloads and
// compiles are built once outside the timer, and each run starts from a
// fresh copy of the kernel's initial memory image, so ns/op and allocs/op
// are the warp pipeline and its memory system alone.
func BenchmarkSIMTRun(b *testing.B) {
	type job struct {
		name  string
		w     *kernels.Workload
		ck    *compile.CompiledKernel
		image []uint32
	}
	var jobs []job
	for _, spec := range kernels.All() {
		w, err := kernels.NewWorkload(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		ck, err := compile.Compile(w.Kernel())
		if err != nil {
			b.Fatalf("%s: %v", spec.Name, err)
		}
		jobs = append(jobs, job{spec.Name, w, ck, w.Global()})
	}
	global := make([][]uint32, len(jobs))
	for i, j := range jobs {
		global[i] = make([]uint32, len(j.image))
	}
	m := NewMachine(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, j := range jobs {
			copy(global[i], j.image)
			if _, err := m.RunCtx(context.Background(), j.ck, j.w.Launch, global[i]); err != nil {
				b.Fatalf("%s: %v", j.name, err)
			}
		}
	}
	b.StopTimer()
	for i, j := range jobs {
		if err := j.w.Check(global[i]); err != nil {
			b.Fatalf("%s: %v", j.name, err)
		}
	}
}
