// vgiw-experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (configuration), Table 2 (benchmarks), Figure 3
// (LVC vs RF traffic), Figure 7 (speedup over Fermi), Figure 8 (speedup over
// SGMF), Figures 9/10 (energy efficiency), Figure 11 (energy vs SGMF), and
// the §3.2 reconfiguration-overhead statistic.
//
// Usage:
//
//	vgiw-experiments                 # all experiments at the default scale
//	vgiw-experiments -scale 4        # larger workloads (closer to the paper)
//	vgiw-experiments -fig7 -fig9     # a subset
//	vgiw-experiments -csv            # machine-readable output
//	vgiw-experiments -parallel 1     # force the serial harness
//	vgiw-experiments -no-cache       # rebuild every artifact per run
//	vgiw-experiments -cpuprofile cpu.pprof  # profile the harness
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/report"
	"vgiw/internal/trace"
	"vgiw/internal/version"
)

func main() {
	var (
		scale    = flag.Int("scale", 2, "workload scale factor (1 = quick, 4 = closer to the paper's sizes)")
		parallel = flag.Int("parallel", runtime.NumCPU(), "concurrent kernel runs (1 = serial; results are identical either way)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		table1   = flag.Bool("table1", false, "Table 1: system configuration")
		table2   = flag.Bool("table2", false, "Table 2: benchmark kernels")
		fig3     = flag.Bool("fig3", false, "Figure 3: LVC vs RF accesses")
		fig7     = flag.Bool("fig7", false, "Figure 7: speedup over Fermi")
		fig8     = flag.Bool("fig8", false, "Figure 8: speedup over SGMF")
		fig9     = flag.Bool("fig9", false, "Figure 9: energy efficiency over Fermi")
		fig10    = flag.Bool("fig10", false, "Figure 10: energy efficiency by level")
		fig11    = flag.Bool("fig11", false, "Figure 11: energy efficiency over SGMF")
		reconfig = flag.Bool("reconfig", false, "reconfiguration overhead (§3.2)")
		util     = flag.Bool("util", false, "extra: per-kernel execution profile")
		lvcSweep = flag.Bool("lvc-sweep", false, "extra: LVC size design-space sweep (§3.4)")
		energy   = flag.Bool("energy", false, "extra: absolute per-component energy breakdown")
		jsonOut  = flag.Bool("json", false, "emit the whole suite as JSON and exit")
		telem    = flag.Bool("telemetry", false, "extra: harness host-time telemetry table (per-kernel stage split + cache counters)")
		noCache  = flag.Bool("no-cache", false, "disable the artifact cache: rebuild workloads and recompile per run (results are identical either way)")
		traceOut = flag.String("trace", "", "write the sweep's cycle-level Chrome trace-event JSON (Perfetto-loadable) to this file")
		traceCat = flag.String("trace-filter", "", "comma-separated trace categories (vgiw,cvt,lvc,simt,sgmf,engine,mem; default all)")
		metrics  = flag.String("metrics", "", "write a one-line schema-versioned metrics snapshot (e.g. BENCH_trace.json) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
		showVer  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(version.String())
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}()
	}

	all := !(*table1 || *table2 || *fig3 || *fig7 || *fig8 || *fig9 || *fig10 || *fig11 || *reconfig || *util)

	opt := bench.DefaultOptions()
	opt.Scale = *scale
	opt.Parallelism = *parallel
	if *traceOut != "" {
		mask, err := trace.ParseCats(*traceCat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		opt.Trace = trace.NewSink(mask)
	}
	if !*noCache {
		// One artifact cache for the whole invocation: the figure matrix and
		// the LVC sweep share workloads and compile/place products.
		opt.Cache = bench.NewArtifactCache()
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	fmt.Fprintf(os.Stderr, "running %d benchmark kernels on VGIW, Fermi-SIMT and SGMF (scale %d, %d workers)...\n",
		len(kernels.All()), *scale, workers)
	suite, err := bench.RunSuite(opt)
	runs := suite.Runs
	if err != nil {
		// A failing kernel no longer discards the completed runs: report
		// every failure and keep going with the rest.
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		if len(runs) == 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "continuing with the %d/%d kernels that completed.\n",
			len(runs), len(kernels.All()))
	}
	fmt.Fprintf(os.Stderr, "%d runs validated against the host references in %.2fs wall clock.\n",
		len(runs), suite.WallClock.Seconds())
	fmt.Fprintf(os.Stderr, "stages (summed across workers): instance %.1fms, compile %.1fms, place %.1fms, simulate %.1fms; cache %d hits / %d misses\n\n",
		suite.Stages.Instance.Seconds()*1e3, suite.Stages.Compile.Seconds()*1e3,
		suite.Stages.Place.Seconds()*1e3, suite.Stages.Simulate.Seconds()*1e3,
		suite.Cache.HitsTotal(), suite.Cache.MissesTotal())

	if opt.Trace != nil {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = opt.Trace.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (%d dropped)\n",
			opt.Trace.Len(), *traceOut, opt.Trace.Dropped())
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		n := 0
		if err == nil {
			n, err = suite.Metrics.WriteSnapshot(f, *scale)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot (%s, %d metrics) to %s\n",
			trace.MetricsSchema, n, *metrics)
	}

	if *jsonOut {
		if err := suite.WriteJSON(os.Stdout, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}

	emit := func(enabled bool, t *report.Table) {
		if !enabled && !all {
			return
		}
		var err error
		if *csv {
			err = t.WriteCSV(os.Stdout)
			fmt.Println()
		} else {
			err = t.Write(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
	}

	emit(*table1, bench.Table1(opt))
	emit(*table2, bench.Table2(runs))
	emit(*fig3, bench.Fig3(runs))
	emit(*fig7, bench.Fig7(runs))
	emit(*fig8, bench.Fig8(runs))
	emit(*fig9, bench.Fig9(runs))
	emit(*fig10, bench.Fig10(runs))
	emit(*fig11, bench.Fig11(runs))
	emit(*reconfig, bench.ReconfigTable(runs))
	emit(*util, bench.UtilizationTable(runs))
	emit(*energy, bench.EnergyBreakdown(runs))
	if *telem {
		emit(true, bench.TelemetryTable(suite))
	}

	if *lvcSweep {
		t, err := bench.LVCSweep(opt, []int{16, 32, 64, 128, 256},
			[]string{"hotspot.kernel", "lavamd.kernel", "lud.internal", "nw.needle1", "sm.compute_cost"})
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		emit(true, t)
	}
}
