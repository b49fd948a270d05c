package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
)

func TestMixSameSeedSameStream(t *testing.T) {
	a, b, c := newMix(7), newMix(7), newMix(8)
	differs := false
	for i := 0; i < 2000; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("job %d differs between two mixes with seed 7", i)
		}
		differs = differs || a.at(i) != c.at(i)
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same 2000 jobs")
	}
	// Asking out of order gives the same jobs.
	d := newMix(7)
	if d.at(1999) != a.at(1999) || d.at(3) != a.at(3) {
		t.Error("the stream depends on the order jobs are asked for")
	}
}

func TestMixRepeatShareAndFreshSpecs(t *testing.T) {
	const n = 10000
	m := newMix(1)
	seen := map[bench.JobSpec]bool{}
	repeats := 0
	for i := 0; i < n; i++ {
		s := m.at(i)
		if seen[s] {
			repeats++
			continue
		}
		seen[s] = true
		norm := s
		if err := norm.Normalize(); err != nil {
			t.Fatalf("fresh spec %+v: %v", s, err)
		}
		if norm != s {
			t.Errorf("fresh spec %+v is not normalized (%+v)", s, norm)
		}
		if s.Scale != 1 || s.LVCKB < 16 || s.LVCKB > 256 || s.CVTBits%4096 != 0 || s.CVTBits > 32*4096 {
			t.Errorf("fresh spec %+v outside the drawn ranges", s)
		}
	}
	if share := float64(repeats) / n; math.Abs(share-2.0/3) > 0.02 {
		t.Errorf("repeat share %.3f, want 2/3 ± 0.02", share)
	}
	if len(m.fresh) != len(seen) {
		t.Errorf("%d fresh draws but %d distinct specs", len(m.fresh), len(seen))
	}
	// Each round of fresh draws runs every kernel once.
	names := kernels.Names()
	for round := 0; (round+1)*len(names) <= len(m.fresh); round++ {
		got := map[string]int{}
		for _, s := range m.fresh[round*len(names) : (round+1)*len(names)] {
			got[s.Kernel]++
		}
		if len(got) != len(names) {
			t.Fatalf("round %d of fresh draws covers %d of %d kernels", round, len(got), len(names))
		}
	}
}

func TestSweepMatrix(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a, b := sweepMatrix(rng), sweepMatrix(rng)
	if want := len(kernels.Names()) * len(sweepKB); len(a) != want || len(b) != want {
		t.Fatalf("sweeps of %d and %d jobs, want %d", len(a), len(b), want)
	}
	seen := map[bench.JobSpec]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("spec %+v repeats within a sweep", s)
		}
		seen[s] = true
		norm := s
		if err := norm.Normalize(); err != nil || norm != s {
			t.Errorf("spec %+v does not normalize to itself (%+v, %v)", s, norm, err)
		}
	}
	for _, s := range b {
		if !seen[s] {
			t.Errorf("second sweep holds %+v, which the first does not", s)
		}
	}
	if slices.Equal(a, b) {
		t.Error("two sweeps from one generator came in the same order")
	}
	if c := sweepMatrix(rand.New(rand.NewPCG(1, 2))); !slices.Equal(a, c) {
		t.Error("the same seed gave two different sweep orders")
	}
}
