package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// TestEngineTraceNodeFirings checks the engine emits one CatEngine span per
// node execution onto the hooks' track, and that a disabled sink emits none.
func TestEngineTraceNodeFirings(t *testing.T) {
	k := buildSaxpyBlock(t)
	sink := trace.NewSink(trace.CatEngine)
	pid := sink.AllocProcess("saxpy1b/test")
	opt := Options{Trace: sink}
	launch := kir.Launch1D(1, 8, 2, 0, 8)
	global := make([]uint32, 16)

	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	p, err := fabric.Place(grid, ck.DFGs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := mem.NewSystem(mem.DefaultConfig(mem.WriteBack))
	env, err := NewDataEnv(k, launch, global, sys)
	if err != nil {
		t.Fatal(err)
	}
	threads := []int{0, 1, 2, 3, 4, 5, 6, 7}
	hooks := env.Hooks()
	hooks.TraceTrack = trace.TrackID{Pid: pid, Tid: 0}
	if _, err := New(grid, opt).RunVectorCtx(context.Background(), p, threads, 0, hooks); err != nil {
		t.Fatal(err)
	}
	// Every node fires once per thread: len(nodes) * 8 events.
	want := len(ck.DFGs[0].Nodes) * len(threads)
	if sink.Len() != want {
		t.Errorf("recorded %d node events, want %d", sink.Len(), want)
	}
}

// TestUnitIssuesMatchTracedFirings checks the profile's per-unit occupancy,
// which RunVectorCtx derives from the placement and the thread count, against
// an independent count: one CatEngine firing event per node execution,
// charged to the unit that the event's node and replica place it on. The
// widest placement leaves a partial last round of threads, and the
// shared-unit placement puts two nodes on one unit.
func TestUnitIssuesMatchTracedFirings(t *testing.T) {
	k := buildSaxpyBlock(t)
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	g := ck.DFGs[0]
	grid := testGrid(t)
	widest, err := fabric.PlaceMax(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	shared := sharedUnitPlacement(t, grid, g)
	const n = 203 // leaves a partial round on every replica count above 1
	launch := kir.Launch1D(7, 32, kir.F32(0.5), 0, 224)
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	for _, p := range []*fabric.Placement{widest, shared} {
		if n%p.Replicas == 0 {
			t.Fatalf("%d threads fill every round of %d replicas", n, p.Replicas)
		}
		run := func(opt Options) Stats {
			env, err := NewDataEnv(k, launch, make([]uint32, 448), mem.NewSystem(mem.DefaultConfig(mem.WriteBack)))
			if err != nil {
				t.Fatal(err)
			}
			st, err := New(grid, opt).RunVectorCtx(context.Background(), p, threads, 0, env.Hooks())
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		sink := trace.NewSink(trace.CatEngine)
		traced := run(Options{Profile: true, Trace: sink})
		var buf bytes.Buffer
		if err := sink.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Args map[string]int64 `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if got, want := len(doc.TraceEvents), len(g.Nodes)*n; got != want {
			t.Fatalf("%d replicas: %d firing events, want %d", p.Replicas, got, want)
		}
		fired := make([]uint64, grid.NumUnits())
		for _, ev := range doc.TraceEvents {
			fired[p.UnitOf[ev.Args["replica"]][ev.Args["node"]]]++
		}
		if !reflect.DeepEqual(traced.UnitIssues, fired) {
			t.Errorf("%d replicas: traced run's UnitIssues %v, firing events per unit %v", p.Replicas, traced.UnitIssues, fired)
		}
		if got := run(Options{Profile: true}).UnitIssues; !reflect.DeepEqual(got, fired) {
			t.Errorf("%d replicas: untraced run's UnitIssues %v, firing events per unit %v", p.Replicas, got, fired)
		}
	}
}
