package core

import (
	"reflect"
	"testing"

	"vgiw/internal/engine"
	"vgiw/internal/kernels"
	"vgiw/internal/sgmf"
)

// TestDifferentialEngines is the executor-equivalence gate for the batched
// engine: every registry kernel runs through the scalar reference walk, the
// batched (default) executor, and the functional-only fast mode, on both the
// VGIW machine and (where mappable) the SGMF baseline.
//
//   - scalar vs batched must agree on EVERYTHING — final global memory and
//     the entire Result, including cycle counts, per-block schedules, memory
//     and LVC statistics, and the profiled per-unit issue counts (Profile
//     is forced on so those are populated and compared).
//   - fast mode must agree on final global memory and on every cycle-
//     independent count (the fabric's engine.Counts, and on VGIW the LVC's
//     loads and stores); its cycle-level fields are all zero by contract.
//
// The test runs under -race in CI, so it also exercises the batched
// executor's scratch reuse for data races.
func TestDifferentialEngines(t *testing.T) {
	for _, spec := range kernels.All() {
		t.Run(spec.Name, func(t *testing.T) {
			runVGIW := func(scalar, fast bool) (*Result, []uint32) {
				t.Helper()
				inst, err := spec.Build(1)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				cfg := DefaultConfig()
				cfg.Engine.Profile = true
				cfg.Engine.Scalar = scalar
				cfg.Engine.Fast = fast
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatalf("machine: %v", err)
				}
				res, err := m.RunKernel(inst.Kernel, inst.Launch, inst.Global)
				if err != nil {
					t.Fatalf("run (scalar=%v fast=%v): %v", scalar, fast, err)
				}
				if err := inst.Check(inst.Global); err != nil {
					t.Fatalf("validation (scalar=%v fast=%v): %v", scalar, fast, err)
				}
				return res, inst.Global
			}

			sres, sglob := runVGIW(true, false)
			vres, vglob := runVGIW(false, false)
			fres, fglob := runVGIW(false, true)

			if !reflect.DeepEqual(sglob, vglob) {
				t.Errorf("VGIW batched global memory differs from scalar")
			}
			if !reflect.DeepEqual(sres, vres) {
				t.Errorf("VGIW batched Result differs from scalar:\nscalar:  %+v\nbatched: %+v", sres, vres)
			}
			if !reflect.DeepEqual(sglob, fglob) {
				t.Errorf("VGIW fast global memory differs from scalar")
			}
			checkCounts(t, "VGIW fast", sres.Counts, fres.Counts)
			if fres.LVCLoads != sres.LVCLoads || fres.LVCStores != sres.LVCStores {
				t.Errorf("VGIW fast LVC loads/stores = %d/%d, want %d/%d",
					fres.LVCLoads, fres.LVCStores, sres.LVCLoads, sres.LVCStores)
			}
			// Fast mode contributes zero execution cycles; only the BBS's
			// reconfiguration cost (accounted outside the engine) remains.
			if fres.Cycles != fres.ConfigCycles {
				t.Errorf("VGIW fast mode reported %d cycles, want reconfiguration cost only (%d)",
					fres.Cycles, fres.ConfigCycles)
			}

			if !spec.SGMF {
				return
			}
			runSGMF := func(scalar, fast bool) (*sgmf.Result, []uint32) {
				t.Helper()
				inst, err := spec.Build(1)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				cfg := sgmf.DefaultConfig()
				cfg.Engine = engine.Options{Profile: true, Scalar: scalar, Fast: fast}
				m, err := sgmf.NewMachine(cfg)
				if err != nil {
					t.Fatalf("sgmf machine: %v", err)
				}
				res, err := m.Run(inst.Kernel, inst.Launch, inst.Global)
				if err != nil {
					t.Fatalf("sgmf run (scalar=%v fast=%v): %v", scalar, fast, err)
				}
				if err := inst.Check(inst.Global); err != nil {
					t.Fatalf("sgmf validation (scalar=%v fast=%v): %v", scalar, fast, err)
				}
				return res, inst.Global
			}
			ssres, ssglob := runSGMF(true, false)
			svres, svglob := runSGMF(false, false)
			sfres, sfglob := runSGMF(false, true)
			if !reflect.DeepEqual(ssglob, svglob) {
				t.Errorf("SGMF batched global memory differs from scalar")
			}
			if !reflect.DeepEqual(ssres, svres) {
				t.Errorf("SGMF batched Result differs from scalar:\nscalar:  %+v\nbatched: %+v", ssres, svres)
			}
			if !reflect.DeepEqual(ssglob, sfglob) {
				t.Errorf("SGMF fast global memory differs from scalar")
			}
			checkCounts(t, "SGMF fast", ssres.Counts, sfres.Counts)
			// SGMF configures once at kernel load; fast mode adds no
			// execution cycles past that.
			if want := sgmf.DefaultConfig().Fabric.ConfigCycles; sfres.Cycles != want {
				t.Errorf("SGMF fast mode reported %d cycles, want configuration cost only (%d)",
					sfres.Cycles, want)
			}
		})
	}
}

// checkCounts compares the cycle-independent counts that fast mode must
// reproduce exactly.
func checkCounts(t *testing.T, what string, want, got engine.Counts) {
	t.Helper()
	if want != got {
		t.Errorf("%s counts differ:\nwant %+v\ngot  %+v", what, want, got)
	}
}

// TestCountsConserved checks that a VGIW result's fabric counts are exactly
// the sum of its block runs' engine counts, and that every block run's
// cycles are its engine run's, on every registry kernel.
func TestCountsConserved(t *testing.T) {
	for _, spec := range kernels.All() {
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(1)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			cfg := DefaultConfig()
			cfg.Engine.Profile = true
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatalf("machine: %v", err)
			}
			res, err := m.RunKernel(inst.Kernel, inst.Launch, inst.Global)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var sum engine.Counts
			for i, br := range res.BlockRuns {
				sum.Add(br.Stats.Counts)
				if c := br.Stats.Cycles(); c != br.Cycles {
					t.Errorf("block run %d (@%d): Stats.Cycles() = %d, Cycles = %d", i, br.Block, c, br.Cycles)
				}
			}
			if sum != res.Counts {
				t.Errorf("block runs sum to %+v, result holds %+v", sum, res.Counts)
			}
		})
	}
}
