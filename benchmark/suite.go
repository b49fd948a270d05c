package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/core"
	"vgiw/internal/kernels"
	"vgiw/internal/kir"
	"vgiw/internal/power"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
	"vgiw/internal/trace"
)

// loadBaseline is the suite's set-up: the checked-in metrics snapshot that
// every pass must reproduce exactly.
func loadBaseline(root string) (map[string]uint64, error) {
	b, err := bench.LoadBaseline(filepath.Join(root, "BENCH_trace.json"))
	if err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if b.Snapshot == nil || b.Snapshot.Scale != scale {
		return nil, fmt.Errorf("%s: want a metrics snapshot at scale %d", b.Path, scale)
	}
	return b.Snapshot.Metrics, nil
}

// checkMetrics compares a pass's flat metrics with the baseline, exactly,
// and names the metrics that differ.
func checkMetrics(got, want map[string]uint64) error {
	var bad []string
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			bad = append(bad, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%d of %d metrics differ from BENCH_trace.json, first %s", len(bad), len(want), bad[0])
}

// suitePass is one cold full-registry pass, as one vgiw-experiments run
// pays it: a fresh artifact cache, every kernel on every machine.
func suitePass(base map[string]uint64) error {
	opt := options()
	opt.Cache = bench.NewArtifactCache()
	s, err := bench.RunSuite(opt)
	if err != nil {
		return err
	}
	return checkMetrics(s.Metrics.Flat(), base)
}

func timeSuite(cfg config) (*outcome, error) {
	base, err := loadBaseline(cfg.root)
	if err != nil {
		return nil, err
	}
	su := func() (time.Duration, func(), error) {
		t0 := time.Now()
		_, err := loadBaseline(cfg.root)
		return time.Since(t0), nil, err
	}
	return timedRun(cfg, su, 1, true, func(int) error { return suitePass(base) }), nil
}

// traceSuite runs pairs of passes made of the same public calls
// bench.RunOneCtx makes, the first of each pair untraced and the second with
// each call in a span, so that bench.trace_overhead_pct compares one code
// path with and without its spans. It then replays the last pass's
// simulations with the functional-only engine.
func traceSuite(cfg config) (*outcome, error) {
	base, err := loadBaseline(cfg.root)
	if err != nil {
		return nil, err
	}
	passes := 10
	if cfg.quick {
		passes = 1
	} else if err := suitePass(base); err != nil { // warm-up
		return nil, err
	}
	rec := newRecorder()
	var runs []*bench.KernelRun
	var arts []*artifacts
	untraced, traced, scale, err := pairs(rec, "suite.pass", passes,
		func() error { _, _, err := tracedSuitePass(nil, base); return err },
		func(t *tracer) (err error) { runs, arts, err = tracedSuitePass(t, base); return err })
	if err != nil {
		return nil, err
	}
	root := rec.open("suite.fast_pass", passes, -1)
	err = fastReplay(&tracer{rec, passes, root}, arts)
	rec.close(root)
	if err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(cfg.work, "spans-suite.json")); err != nil {
		return nil, err
	}

	o := &outcome{attempted: 2*passes + 1, metrics: map[string]float64{},
		bypassed: []string{"server", "http", "store"}, timeScale: scale}
	m := o.metrics
	reconcile(m, rec, "suite.pass", untraced, traced)
	self := rec.selfTimes()
	m["core.fast_ms"] = ms(self["core.fast"])
	m["sgmf.fast_ms"] = ms(self["sgmf.fast"])
	m["core.timing_ms"] = m["core.sim_ms"] - m["core.fast_ms"]
	suiteCounts(m, runs, arts)
	return o, nil
}

// tracedSuitePass runs every kernel on every machine, checking each run's
// output against the host reference, folds the runs as RunSuite does and
// checks the folded metrics against the baseline.
func tracedSuitePass(t *tracer, base map[string]uint64) ([]*bench.KernelRun, []*artifacts, error) {
	opt := options()
	ctx := context.Background()
	var runs []*bench.KernelRun
	var arts []*artifacts
	for _, spec := range kernels.All() {
		a, err := buildArtifacts(t, spec, opt)
		if err != nil {
			return nil, nil, err
		}
		kr := &bench.KernelRun{Spec: spec, Blocks: len(a.vgiw.CK.Kernel.Blocks)}

		mv, err := core.NewMachine(opt.VGIW)
		if err != nil {
			return nil, nil, err
		}
		global := a.w.Global()
		if err := t.do("core.sim", func() (err error) {
			kr.VGIW, err = mv.RunPreparedCtx(ctx, a.vgiw, a.w.Launch, global)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("%s: vgiw: %w", spec.Name, err)
		}
		if err := t.do("kernels.check", func() error { return a.w.Check(global) }); err != nil {
			return nil, nil, fmt.Errorf("%s: vgiw output: %w", spec.Name, err)
		}

		global = a.w.Global()
		if err := t.do("simt.sim", func() (err error) {
			kr.SIMT, err = simt.NewMachine(opt.SIMT).RunCtx(ctx, a.simt, a.w.Launch, global)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("%s: simt: %w", spec.Name, err)
		}
		if err := t.do("kernels.check", func() error { return a.w.Check(global) }); err != nil {
			return nil, nil, fmt.Errorf("%s: simt output: %w", spec.Name, err)
		}

		if a.mapped != nil {
			mg, err := sgmf.NewMachine(opt.SGMF)
			if err != nil {
				return nil, nil, err
			}
			global = a.w.Global()
			if err := t.do("sgmf.sim", func() (err error) {
				kr.SGMF, err = mg.RunMappedCtx(ctx, a.mapped, a.w.Launch, global)
				return err
			}); err != nil {
				return nil, nil, fmt.Errorf("%s: sgmf: %w", spec.Name, err)
			}
			if err := t.do("kernels.check", func() error { return a.w.Check(global) }); err != nil {
				return nil, nil, fmt.Errorf("%s: sgmf output: %w", spec.Name, err)
			}
		}

		_ = t.do("power", func() error { // pricing cannot fail
			kr.EnergyVGIW = power.VGIW(kr.VGIW, opt.Power)
			kr.EnergySIMT = power.SIMT(kr.SIMT, opt.Power)
			if kr.SGMF != nil {
				kr.EnergySGMF = power.SGMF(kr.SGMF, opt.Power)
			}
			return nil
		})
		runs = append(runs, kr)
		arts = append(arts, a)
	}
	var reg *trace.Registry
	_ = t.do("bench.collect", func() error { reg = bench.CollectMetrics(runs); return nil }) // cannot fail
	return runs, arts, checkMetrics(reg.Flat(), base)
}

// fastReplay reruns the VGIW and SGMF simulations of one pass with the
// functional-only engine, which skips cycle accounting: the difference to
// the timed simulation is what the timing model costs.
func fastReplay(t *tracer, arts []*artifacts) error {
	opt := options()
	opt.VGIW.Engine.Fast = true
	opt.SGMF.Engine.Fast = true
	ctx := context.Background()
	for _, a := range arts {
		mv, err := core.NewMachine(opt.VGIW)
		if err != nil {
			return err
		}
		global := a.w.Global()
		if err := t.do("core.fast", func() error {
			_, err := mv.RunPreparedCtx(ctx, a.vgiw, a.w.Launch, global)
			return err
		}); err != nil {
			return err
		}
		if err := a.w.Check(global); err != nil {
			return fmt.Errorf("%s: fast vgiw output: %w", a.w.Spec.Name, err)
		}
		if a.mapped == nil {
			continue
		}
		mg, err := sgmf.NewMachine(opt.SGMF)
		if err != nil {
			return err
		}
		global = a.w.Global()
		if err := t.do("sgmf.fast", func() error {
			_, err := mg.RunMappedCtx(ctx, a.mapped, a.w.Launch, global)
			return err
		}); err != nil {
			return err
		}
		if err := a.w.Check(global); err != nil {
			return fmt.Errorf("%s: fast sgmf output: %w", a.w.Spec.Name, err)
		}
	}
	return nil
}

// suiteCounts sets the per-pass work counts of one pass (the simulators are
// deterministic, so every pass counts the same) and the per-unit times
// derived from them.
func suiteCounts(m map[string]float64, runs []*bench.KernelRun, arts []*artifacts) {
	var cycles, ops, blockRuns, reconfigs, l1, l1Miss, simtL1, simtCycles, warpInsts, sgmfCycles uint64
	for _, kr := range runs {
		v := kr.VGIW
		cycles += uint64(v.Cycles)
		for c := 0; c < kir.NumUnitClasses; c++ {
			ops += v.Ops[kir.UnitClass(c)]
		}
		blockRuns += uint64(len(v.BlockRuns))
		reconfigs += v.Reconfigs
		l1 += v.MemStats.L1.Accesses()
		l1Miss += v.MemStats.L1.Misses()
		simtL1 += kr.SIMT.MemStats.L1.Accesses()
		simtCycles += uint64(kr.SIMT.Cycles)
		warpInsts += kr.SIMT.WarpInstrs
		if kr.SGMF != nil {
			sgmfCycles += uint64(kr.SGMF.Cycles)
		}
	}
	m["core.cycles"] = float64(cycles)
	m["core.ops"] = float64(ops)
	m["core.block_runs"] = float64(blockRuns)
	m["core.reconfigs"] = float64(reconfigs)
	m["core.ns_per_op"] = m["core.sim_ms"] * 1e6 / float64(ops)
	m["mem.vgiw_l1_accesses"] = float64(l1)
	m["mem.vgiw_l1_miss_ratio"] = float64(l1Miss) / float64(l1)
	m["mem.simt_l1_accesses"] = float64(simtL1)
	m["mem.timing_ns_per_access"] = m["core.timing_ms"] * 1e6 / float64(l1)
	m["simt.cycles"] = float64(simtCycles)
	m["simt.warp_insts"] = float64(warpInsts)
	m["simt.ns_per_warp_inst"] = m["simt.sim_ms"] * 1e6 / float64(warpInsts)
	m["sgmf.cycles"] = float64(sgmfCycles)
	compileCounts(m, arts)
}

// compileCounts sets the artifact counts of one pass and the compile time
// per VGIW graph node.
func compileCounts(m map[string]float64, arts []*artifacts) {
	var total shape
	for _, a := range arts {
		s := a.shape()
		total.Blocks += s.Blocks
		total.DFGNodes += s.DFGNodes
		total.Replicas += s.Replicas + s.SGMFReplicas
	}
	m["compile.blocks"] = float64(total.Blocks)
	m["compile.dfg_nodes"] = float64(total.DFGNodes)
	m["compile.us_per_node"] = m["compile.vgiw_ms"] * 1e3 / float64(total.DFGNodes)
	m["fabric.replicas"] = float64(total.Replicas)
}
