package engine

import (
	"context"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
)

// runThroughput streams n threads through a single-replica placement and
// returns cycles per thread.
func runThroughput(t *testing.T, k *kir.Kernel, n, words int) float64 {
	t.Helper()
	grid, err := fabric.NewGrid(fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fabric.Place(grid, ck.DFGs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	launch := kir.Launch1D(n/32, 32, 0)
	env, err := NewDataEnv(k, launch, make([]uint32, words), mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	st, err := New(grid, Options{}).RunVectorCtx(context.Background(), p, threads, 0, env.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	return float64(st.Cycles()) / float64(n)
}

// Pipelining: a short independent-op kernel must approach the 1
// thread/cycle/replica injection limit; a stalled thread (cache miss) must
// not serialize the threads behind it (tagged-token out-of-order dataflow).
func TestEnginePipelinesToInjectionLimit(t *testing.T) {
	b := kir.NewBuilder("short")
	b.SetParams(1)
	b.SetBlock(b.NewBlock("entry"))
	v := b.I2F(b.Tid())
	b.Store(b.Add(b.Param(0), b.Tid()), 0, b.FAdd(v, v))
	b.Ret()
	perThread := runThroughput(t, b.MustBuild(), 1024, 1024)
	if perThread > 2.0 {
		t.Errorf("short kernel runs at %.2f cycles/thread; expected near the 1/cycle injection limit", perThread)
	}
}

func TestEngineMissesDoNotSerialize(t *testing.T) {
	// Strided loads: every access misses to DRAM. With out-of-order
	// overtaking and 64 reservation slots, sustained throughput must stay
	// far below the ~330-cycle serial miss latency.
	b := kir.NewBuilder("misses")
	b.SetParams(1)
	b.SetBlock(b.NewBlock("entry"))
	addr := b.Add(b.Param(0), b.MulI(b.Tid(), 64))
	v := b.Load(addr, 0)
	b.Store(addr, 1, v)
	b.Ret()
	perThread := runThroughput(t, b.MustBuild(), 512, 512*64+2)
	if perThread > 40 {
		t.Errorf("all-miss kernel runs at %.1f cycles/thread; misses are serializing", perThread)
	}
}
