package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
)

// TestEngineErrorPathHookOrder pins the Hooks ordering contract on the error
// path: when a store runs out of bounds mid-vector, the batched executor
// must fail on the same access as the scalar walk, after the identical
// Branch call sequence and with the identical partial memory state.
func TestEngineErrorPathHookOrder(t *testing.T) {
	b := kir.NewBuilder("oob")
	b.SetParams(1)
	b.SetBlock(b.NewBlock("entry"))
	b.Store(b.Add(b.Param(0), b.Tid()), 0, b.Tid())
	b.Ret()
	k := b.MustBuild()
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	p, err := fabric.Place(grid, ck.DFGs[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	// Thread 293's store is the first one out of bounds.
	const n, words = 512, 293
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	run := func(opt Options) ([]int, []uint32, error) {
		global := make([]uint32, words)
		env, err := NewDataEnv(k, kir.Launch1D(n/32, 32, 0), global, mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
		if err != nil {
			t.Fatal(err)
		}
		h := env.Hooks()
		var branches []int
		h.Branch = func(tid int, _ uint32, _ int64) { branches = append(branches, tid) }
		_, err = New(grid, opt).RunVectorCtx(context.Background(), p, threads, 0, h)
		return branches, global, err
	}
	sBr, sMem, sErr := run(Options{Scalar: true})
	bBr, bMem, bErr := run(Options{})
	if sErr == nil || bErr == nil {
		t.Fatalf("want out-of-bounds errors, got scalar %v, batched %v", sErr, bErr)
	}
	if !strings.Contains(sErr.Error(), "thread 293:") {
		t.Fatalf("scalar error %q, want thread 293 to fail first", sErr)
	}
	if bErr.Error() != sErr.Error() {
		t.Errorf("batched error %q, scalar %q", bErr, sErr)
	}
	if !reflect.DeepEqual(bBr, sBr) {
		t.Errorf("Branch calls differ: batched fired %d, scalar %d", len(bBr), len(sBr))
	}
	if !reflect.DeepEqual(bMem, sMem) {
		t.Error("partial global memory differs between batched and scalar")
	}
}

// TestEngineSharedUnitPlacementMatchesScalar covers the batched executor's
// fallback: a placement that puts two same-class nodes on one unit, which
// fabric.Place never emits, breaks collapsed timing and node-major firing
// alike (the shared unit's slot allocations would leave thread order), so
// the run must take the scalar walk and match it exactly, profile vectors
// included.
func TestEngineSharedUnitPlacementMatchesScalar(t *testing.T) {
	k := buildSaxpyBlock(t)
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	g := ck.DFGs[0]
	grid := testGrid(t)
	placed, err := fabric.Place(grid, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// In every replica, move the second ALU node onto the first one's unit.
	p := *placed
	p.UnitOf = make([][]int, len(placed.UnitOf))
	for r, units := range placed.UnitOf {
		p.UnitOf[r] = append([]int(nil), units...)
		first := -1
		for _, nd := range g.Nodes {
			if nd.Class() != kir.ClassALU {
				continue
			}
			if first < 0 {
				first = nd.ID
				continue
			}
			p.UnitOf[r][nd.ID] = p.UnitOf[r][first]
			break
		}
	}
	prog, err := compileProg(&p)
	if err != nil {
		t.Fatal(err)
	}
	if prog.canCollapse {
		t.Fatal("hand-built placement shares no unit")
	}

	const n = 256
	launch := kir.Launch1D(n/32, 32, kir.F32(0.5), 0, n)
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	run := func(opt Options) (*Stats, []uint32) {
		global := make([]uint32, 2*n)
		for i := range global {
			global[i] = kir.F32(float32(i))
		}
		env, err := NewDataEnv(k, launch, global, mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(grid, opt).RunVectorCtx(context.Background(), &p, threads, 0, env.Hooks())
		if err != nil {
			t.Fatal(err)
		}
		return st, global
	}
	sSt, sMem := run(Options{Profile: true, Scalar: true})
	bSt, bMem := run(Options{Profile: true})
	if !reflect.DeepEqual(bSt, sSt) {
		t.Errorf("batched Stats differ from scalar:\nscalar:  %+v\nbatched: %+v", sSt, bSt)
	}
	if !reflect.DeepEqual(bMem, sMem) {
		t.Error("batched global memory differs from scalar")
	}
}
