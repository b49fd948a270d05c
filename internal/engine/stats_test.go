package engine

import (
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

func TestStatsCloneDeepCopies(t *testing.T) {
	s := &Stats{
		Injected:   3,
		EndCycle:   100,
		FPOps:      7,
		UnitIssues: []uint64{6},
	}
	s.Ops[kir.ClassALU] = 9
	c := s.Clone()
	if c == s {
		t.Fatal("Clone returned the receiver")
	}
	// Mutate the original: the clone must not move.
	s.Injected = 0
	s.Ops[kir.ClassALU] = 0
	s.UnitIssues[0] = 99
	if c.Injected != 3 || c.Ops[kir.ClassALU] != 9 {
		t.Errorf("clone shares scalar state: %+v", c)
	}
	if c.UnitIssues[0] != 6 {
		t.Errorf("clone aliases the profile slice: %v", c.UnitIssues)
	}
	// A nil profile slice stays nil (non-profiled runs).
	if n := (&Stats{}).Clone(); n.UnitIssues != nil {
		t.Error("clone materialized a nil slice")
	}
}

// TestRunVectorStatsReuse pins the aliasing footgun Clone exists for: without
// Options.Profile the engine recycles one Stats across RunVector calls, so a
// caller that retains the pointer sees it overwritten by the next run — and
// Clone is the escape hatch.
func TestRunVectorStatsReuse(t *testing.T) {
	k := buildSaxpyBlock(t)
	ck, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	p, err := fabric.PlaceMax(grid, ck.DFGs[0])
	if err != nil {
		t.Fatal(err)
	}
	launch := kir.Launch1D(1, 32, 2, 0, 32)
	global := make([]uint32, 64)
	sys := mem.NewSystem(mem.DefaultConfig(mem.WriteBack))
	env, err := NewDataEnv(k, launch, global, sys)
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]int, launch.Threads())
	for i := range threads {
		threads[i] = i
	}
	e := New(grid, Options{})

	st1, err := e.RunVector(p, threads[:16], 0, env.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	saved := st1.Clone()
	firstEnd := st1.EndCycle

	st2, err := e.RunVector(p, threads, firstEnd, env.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("non-profiled RunVector returned a fresh Stats; the reuse contract changed — update Clone's docs and this test")
	}
	if st1.Injected != len(threads) {
		t.Fatalf("second run injected %d, want %d", st1.Injected, len(threads))
	}
	// The retained pointer was overwritten; the clone kept the first run.
	if saved.Injected != 16 || saved.EndCycle != firstEnd {
		t.Errorf("clone drifted: injected=%d end=%d, want 16/%d", saved.Injected, saved.EndCycle, firstEnd)
	}
}

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
	if _, err := New(grid, opt).RunVector(p, threads, 0, hooks); err != nil {
		t.Fatal(err)
	}
	// Every node fires once per thread: len(nodes) * 8 events.
	want := len(ck.DFGs[0].Nodes) * len(threads)
	if sink.Len() != want {
		t.Errorf("recorded %d node events, want %d", sink.Len(), want)
	}
}
