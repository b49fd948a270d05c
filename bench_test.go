// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§5) plus the ablations called out in DESIGN.md. Each benchmark
// reports the reproduced headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the paper-reproduction numbers alongside simulator throughput. The
// full per-kernel tables come from cmd/vgiw-experiments.
package vgiw

import (
	"slices"
	"testing"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/mem"
	"vgiw/internal/simt"
)

// runSuite executes the full workload registry once per iteration and
// returns the last iteration's runs.
func runSuite(b *testing.B, opt bench.Options) []*bench.KernelRun {
	b.Helper()
	var runs []*bench.KernelRun
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = bench.RunAll(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	return runs
}

// BenchmarkTable1Config reports the machine configuration table (Table 1).
// There is nothing to measure; the benchmark exists so every table has a
// bench target, and it verifies the config renders.
func BenchmarkTable1Config(b *testing.B) {
	opt := bench.DefaultOptions()
	for i := 0; i < b.N; i++ {
		t := bench.Table1(opt)
		if len(t.Rows) == 0 {
			b.Fatal("empty Table 1")
		}
	}
	b.ReportMetric(108, "units")
}

// BenchmarkTable2Workloads compiles every Table 2 kernel and reports the
// registry size.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range kernels.All() {
			if _, err := spec.Build(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(kernels.All())), "kernels")
}

// BenchmarkFig3LVCvsRF reproduces Figure 3: LVC accesses as a fraction of
// register-file accesses (paper: ~0.1 on average).
func BenchmarkFig3LVCvsRF(b *testing.B) {
	runs := runSuite(b, bench.DefaultOptions())
	var ratios []float64
	for _, r := range runs {
		ratios = append(ratios, r.LVCOverRF())
	}
	b.ReportMetric(meanOf(ratios), "LVC/RF-ratio")
}

// BenchmarkFig7Speedup reproduces Figure 7: speedup of VGIW over the Fermi
// baseline (paper: >3x average, 0.9-11x range).
func BenchmarkFig7Speedup(b *testing.B) {
	runs := runSuite(b, bench.DefaultOptions())
	var sp []float64
	best := 0.0
	for _, r := range runs {
		s := r.Speedup()
		sp = append(sp, s)
		if s > best {
			best = s
		}
	}
	b.ReportMetric(bench.Geomean(sp), "x-geomean-speedup")
	b.ReportMetric(best, "x-best-speedup")
}

// BenchmarkFig8SpeedupVsSGMF reproduces Figure 8 (paper: ~1.45x average on
// the SGMF-mappable subset).
func BenchmarkFig8SpeedupVsSGMF(b *testing.B) {
	runs := runSuite(b, bench.DefaultOptions())
	var sp []float64
	for _, r := range runs {
		if r.SGMF != nil {
			sp = append(sp, r.SpeedupVsSGMF())
		}
	}
	b.ReportMetric(bench.Geomean(sp), "x-geomean-vs-sgmf")
}

// BenchmarkFig9EnergyEfficiency reproduces Figure 9 (paper: 1.75x average).
func BenchmarkFig9EnergyEfficiency(b *testing.B) {
	runs := runSuite(b, bench.DefaultOptions())
	var eff []float64
	for _, r := range runs {
		eff = append(eff, r.EnergyEff("system"))
	}
	b.ReportMetric(bench.Geomean(eff), "x-geomean-efficiency")
}

// BenchmarkFig10EnergyByLevel reproduces Figure 10: efficiency at system,
// die and core levels (the win concentrates in the compute engine).
func BenchmarkFig10EnergyByLevel(b *testing.B) {
	runs := runSuite(b, bench.DefaultOptions())
	var sys, die, cor []float64
	for _, r := range runs {
		sys = append(sys, r.EnergyEff("system"))
		die = append(die, r.EnergyEff("die"))
		cor = append(cor, r.EnergyEff("core"))
	}
	b.ReportMetric(bench.Geomean(sys), "x-system")
	b.ReportMetric(bench.Geomean(die), "x-die")
	b.ReportMetric(bench.Geomean(cor), "x-core")
}

// BenchmarkFig11EnergyVsSGMF reproduces Figure 11 (paper: ~1.33x average).
func BenchmarkFig11EnergyVsSGMF(b *testing.B) {
	runs := runSuite(b, bench.DefaultOptions())
	var eff []float64
	for _, r := range runs {
		if r.SGMF != nil {
			eff = append(eff, r.EnergyEffVsSGMF())
		}
	}
	b.ReportMetric(bench.Geomean(eff), "x-geomean-vs-sgmf")
}

// BenchmarkReconfigOverhead reproduces the §3.2 statistic (paper: 0.18%
// average, <0.1% median).
func BenchmarkReconfigOverhead(b *testing.B) {
	runs := runSuite(b, bench.DefaultOptions())
	var ohs []float64
	for _, r := range runs {
		ohs = append(ohs, r.VGIW.ConfigOverhead()*100)
	}
	b.ReportMetric(meanOf(ohs), "%-mean-overhead")
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblations measures each remaining mechanism over the whole
// registry at scale 2: one sub-benchmark per knob, each reporting the
// distribution of cycles(ablated)/cycles(default) across the 21 kernels
// (>1 means the mechanism helps). Every sub-benchmark runs through
// bench.RunAll on one shared ArtifactCache, so a machine the knob does not
// change (the SIMT baseline under a VGIW knob, the default VGIW machine) is
// served from the result tiers, and every simulated run is checked against
// its host reference. EXPERIMENTS.md's Ablations table is this output.
func BenchmarkAblations(b *testing.B) {
	base := bench.DefaultOptions()
	base.Scale = 2
	base.SkipSGMF = true
	base.Cache = bench.NewArtifactCache()
	defaults, err := bench.RunAll(base)
	if err != nil {
		b.Fatal(err)
	}
	vgiwCycles := func(r *bench.KernelRun) int64 { return r.VGIW.Cycles }
	simtCycles := func(r *bench.KernelRun) int64 { return r.SIMT.Cycles }
	knobs := []struct {
		name   string
		ablate func(*bench.Options)
		cycles func(*bench.KernelRun) int64
	}{
		{"replication-off", func(o *bench.Options) { o.VGIW.ReplicationOff = true }, vgiwCycles},
		{"lvc-16KB", func(o *bench.Options) { o.VGIW.LVC.SizeBytes = 16 << 10 }, vgiwCycles},
		{"l1-write-through", func(o *bench.Options) { o.VGIW.Mem = mem.DefaultConfig(mem.WriteThrough) }, vgiwCycles},
		{"cvt-2048-bits", func(o *bench.Options) { o.VGIW.CVTCapacityBits = 2048 }, vgiwCycles},
		{"in-order-threads", func(o *bench.Options) { o.VGIW.Engine.InOrderThreads = true }, vgiwCycles},
		{"simt-gto", func(o *bench.Options) { o.SIMT.Scheduler = simt.SchedGTO }, simtCycles},
	}
	for _, k := range knobs {
		b.Run(k.name, func(b *testing.B) {
			opt := base
			k.ablate(&opt)
			var runs []*bench.KernelRun
			for i := 0; i < b.N; i++ {
				var err error
				if runs, err = bench.RunAll(opt); err != nil {
					b.Fatal(err)
				}
			}
			ratios := make([]float64, len(runs))
			var slower, same, faster int
			for i, r := range runs {
				on, off := k.cycles(defaults[i]), k.cycles(r)
				ratios[i] = float64(off) / float64(on)
				switch {
				case off > on:
					slower++
				case off == on:
					same++
				default:
					faster++
				}
			}
			b.ReportMetric(bench.Geomean(ratios), "x-geomean")
			b.ReportMetric(slices.Min(ratios), "x-min")
			b.ReportMetric(slices.Max(ratios), "x-max")
			b.ReportMetric(float64(slower), "slower")
			b.ReportMetric(float64(same), "same")
			b.ReportMetric(float64(faster), "faster")
		})
	}
}

func meanOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
