package simt

import (
	"context"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/kernels"
	"vgiw/internal/kir"
)

// newTestRun builds a run through the constructor RunCtx uses, so every
// piece of per-run state (the issue gate included) starts as a real run's
// does; tests then admit CTAs and drive the scheduler by hand.
func newTestRun(t *testing.T, cfg Config, build func() *kir.Kernel, launch kir.Launch, global []uint32) *run {
	t.Helper()
	ck, err := compile.Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewMachine(cfg).newRun(context.Background(), ck, launch, global)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGTOGreedySurvivesCompaction pins the greedy-target tracking across
// warp-list compaction. The greedy target must be tracked by identity: before
// the fix it was stored as a warp ID and used as an index into r.warps, so
// after compact() renumbered the list the "greedy" pick silently switched to
// whichever warp inherited the index.
func TestGTOGreedySurvivesCompaction(t *testing.T) {
	debugVerifyIssueCache = true
	defer func() { debugVerifyIssueCache = false }()

	cfg := DefaultConfig()
	cfg.Scheduler = SchedGTO
	r := newTestRun(t, cfg, buildDiamond, kir.Launch1D(10, 32, 0, 320), diamondInput(320))

	// Ten one-warp CTAs: warps 0..7 retired, 8 live but stalled far in the
	// future, 9 live and ready. GTO must latch warp 9 as the greedy target.
	for cta := 0; cta < 10; cta++ {
		r.admitCTA(cta, 1)
	}
	for i := 0; i < 8; i++ {
		r.retireWarp(r.warps[i])
	}
	r.warps[8].readyAt = 1 << 40
	greedy := r.pickWarp()
	if greedy != r.warps[9] {
		t.Fatalf("GTO picked warp %d, want the only ready warp 9", greedy.id)
	}

	// Compact renumbers: the stalled warp becomes index/ID 0, the greedy
	// target becomes index/ID 1. Wake the stalled warp so both are ready.
	r.compact()
	r.warps[0].readyAt = 0
	r.gate[0] = gateStale
	if got := r.pickWarp(); got != greedy {
		t.Fatalf("greedy target switched across compaction: got warp %d, want the pre-compaction greedy (now warp %d)",
			got.id, greedy.id)
	}

	// A retired greedy target must be dropped, not pinned forever.
	r.retireWarp(greedy)
	r.compact()
	if r.greedy != nil {
		t.Error("compact kept a retired greedy target")
	}
	if got := r.pickWarp(); got != r.warps[0] {
		t.Fatalf("after greedy retirement GTO picked warp %d, want oldest ready warp 0", got.id)
	}
}

// TestSIMTGTOCompactionMatchesReference drives a GTO run with resident
// limits small enough that the warp list compacts repeatedly mid-run
// (compaction fires once the list outgrows 4*MaxWarps), and checks the
// output against the scalar reference.
func TestSIMTGTOCompactionMatchesReference(t *testing.T) {
	const n = 1024 // 32 CTAs of 32 threads: 32 warps through a 4-warp budget
	cfg := DefaultConfig()
	cfg.Scheduler = SchedGTO
	cfg.MaxCTAs = 2
	cfg.MaxWarps = 4
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := reference(t, buildDiamond, launch, diamondInput(n))

	ck, err := compile.Compile(buildDiamond())
	if err != nil {
		t.Fatal(err)
	}
	got := diamondInput(n)
	res, err := NewMachine(cfg).RunCtx(context.Background(), ck, launch, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
}

// TestEarliestIssueCacheMatchesRecompute runs every kernel shape (diamond
// divergence, data-dependent loop, barrier) under both schedulers, at the
// default residency and at one small enough that the warp list compacts
// repeatedly, with the cache-verification hook armed: before the scheduler
// reads the issue gate, every entry is checked against the warp's
// retirement, barrier and memo state and against a scoreboard scan from
// scratch, and the run panics on any drift. This pins the gate's update
// points (admission, issue, terminator, barrier wait and release,
// retirement, compaction) to the events that actually change the answer.
// Three registry kernels with barriers and divergence run the same way.
func TestEarliestIssueCacheMatchesRecompute(t *testing.T) {
	debugVerifyIssueCache = true
	defer func() { debugVerifyIssueCache = false }()

	const n = 256
	type kcase struct {
		name   string
		build  func() *kir.Kernel
		input  func() []uint32
		launch kir.Launch
		check  func([]uint32) error
	}
	kcs := []kcase{
		{"diamond", buildDiamond, func() []uint32 { return diamondInput(n) }, kir.Launch1D(n/32, 32, 0, n), nil},
		{"loopsum", buildLoopSum, func() []uint32 { return make([]uint32, n) }, kir.Launch1D(n/32, 32, 0), nil},
		{"barrier", buildBarrierReverse, func() []uint32 { return make([]uint32, n) }, kir.Launch1D(n/32, 32, 0), nil},
	}
	for _, name := range []string{"nw.needle1", "lud.perimeter", "bpnn.layerforward"} {
		spec, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("%s missing from the registry", name)
		}
		w, err := kernels.NewWorkload(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		kcs = append(kcs, kcase{name, w.Kernel, w.Global, w.Launch, w.Check})
	}
	for _, small := range []bool{false, true} {
		for _, pol := range []SchedPolicy{SchedLRR, SchedGTO} {
			for _, kc := range kcs {
				cfg := DefaultConfig()
				cfg.Scheduler = pol
				if small {
					// Compaction fires once the list outgrows 4*MaxWarps.
					cfg.MaxCTAs, cfg.MaxWarps = 2, 8
				}
				ck, err := compile.Compile(kc.build())
				if err != nil {
					t.Fatal(err)
				}
				got := kc.input()
				if _, err := NewMachine(cfg).RunCtx(context.Background(), ck, kc.launch, got); err != nil {
					t.Fatalf("%s/%v/small=%v: %v", kc.name, pol, small, err)
				}
				if kc.check != nil {
					if err := kc.check(got); err != nil {
						t.Fatalf("%s/%v/small=%v: %v", kc.name, pol, small, err)
					}
					continue
				}
				ref := reference(t, kc.build, kc.launch, kc.input())
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s/%v/small=%v: mem[%d]: simt %d, ref %d", kc.name, pol, small, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestVerifyGatesCatchesDrift shows the verification hook has teeth: each
// way a gate entry can disagree with its warp makes verifyGates panic.
func TestVerifyGatesCatchesDrift(t *testing.T) {
	drifts := []struct {
		name  string
		drift func(r *run)
	}{
		{"retired warp left open", func(r *run) { r.warps[0].done = true }},
		{"barrier wait left open", func(r *run) { r.warps[0].atBarrier = true }},
		{"issuable warp closed", func(r *run) { r.gate[1] = never }},
		{"memo not invalidated", func(r *run) { r.warps[1].readyAt += 100 }},
		{"gate and memo disagree", func(r *run) { r.gate[1]++ }},
		{"missing gate entry", func(r *run) { r.gate = r.gate[:1] }},
	}
	for _, d := range drifts {
		t.Run(d.name, func(t *testing.T) {
			r := newTestRun(t, DefaultConfig(), buildDiamond, kir.Launch1D(2, 32, 0, 64), diamondInput(64))
			r.admitCTA(0, 1)
			r.admitCTA(1, 1)
			for _, w := range r.warps {
				r.earliestIssue(w) // fill the memos
			}
			r.verifyGates() // a consistent run passes
			d.drift(r)
			defer func() {
				if recover() == nil {
					t.Errorf("verifyGates missed the drift")
				}
			}()
			r.verifyGates()
		})
	}
}
