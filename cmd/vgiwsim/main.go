// vgiwsim runs benchmark kernels on one architecture and prints their
// execution statistics.
//
// Usage:
//
//	vgiwsim -list                          # available kernels
//	vgiwsim -kernel bfs.kernel1            # run on VGIW
//	vgiwsim -kernel nn.euclid -arch simt   # the Fermi-like baseline
//	vgiwsim -kernel nn.euclid -arch sgmf   # the SGMF baseline
//	vgiwsim -kernel hotspot.kernel -scale 4 -blocks
//	vgiwsim -kernel all -parallel 8        # whole registry, 8 workers
//	vgiwsim -kernel bfs.kernel1,nn.euclid  # a comma-separated subset
//	vgiwsim -kernel bfs.kernel2 -trace out.json   # Perfetto-loadable trace
//	vgiwsim -kernel bfs.kernel2 -trace out.json -trace-filter vgiw,cvt
//	vgiwsim -kernel bfs.kernel2 -metrics out.json # vgiw-metrics/v1 snapshot
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"vgiw/internal/bench"
	"vgiw/internal/compile"
	"vgiw/internal/core"
	"vgiw/internal/kernels"
	"vgiw/internal/kir"
	"vgiw/internal/power"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
	"vgiw/internal/trace"
	"vgiw/internal/version"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available kernels and exit")
		name     = flag.String("kernel", "", "kernel(s) to run: a name, a comma-separated list, or \"all\" (see -list)")
		arch     = flag.String("arch", "vgiw", "architecture: vgiw, simt, or sgmf")
		scale    = flag.Int("scale", 1, "workload scale factor")
		parallel = flag.Int("parallel", runtime.NumCPU(), "concurrent kernel runs when several kernels are given (0 = all CPUs)")
		blocks   = flag.Bool("blocks", false, "print per-block scheduling detail (vgiw only)")
		grid     = flag.Bool("grid", false, "print the fabric occupancy heatmap (vgiw only)")
		timeline = flag.Bool("timeline", false, "print a timeline of block schedules (vgiw only)")
		traceOut = flag.String("trace", "", "write a cycle-level Chrome trace-event JSON (Perfetto-loadable) to this file")
		traceCat = flag.String("trace-filter", "", "comma-separated trace categories (vgiw,cvt,lvc,simt,sgmf,engine,mem; default all)")
		metrics  = flag.String("metrics", "", "write the metrics registry as a one-line vgiw-metrics/v1 snapshot (benchgate's format) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (at exit) to this file")
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
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("%v", err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vgiwsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "vgiwsim: %v\n", err)
			}
		}()
	}

	if *list {
		for _, s := range kernels.All() {
			sgmfTag := ""
			if s.SGMF {
				sgmfTag = " [sgmf-mappable]"
			}
			fmt.Printf("%-26s %-8s %s%s\n", s.Name, s.Class, s.Description, sgmfTag)
		}
		return
	}

	specs, err := resolveSpecs(*name)
	if err != nil {
		fail("%v", err)
	}

	rc := runCfg{
		arch: *arch, scale: *scale,
		blocks: *blocks, grid: *grid, timeline: *timeline,
	}
	if *traceOut != "" {
		mask, err := trace.ParseCats(*traceCat)
		if err != nil {
			fail("%v", err)
		}
		rc.sink = trace.NewSink(mask)
	}
	if *metrics != "" {
		rc.reg = trace.NewRegistry()
	}
	finish := func() {
		if rc.sink != nil {
			if err := writeFile(*traceOut, rc.sink.WriteChromeTrace); err != nil {
				fail("%v", err)
			}
			fmt.Fprintf(os.Stderr, "vgiwsim: wrote %d trace events to %s (%d dropped)\n",
				rc.sink.Len(), *traceOut, rc.sink.Dropped())
		}
		if rc.reg != nil {
			snapshot := func(w io.Writer) error { return rc.reg.WriteSnapshot(w, *scale) }
			if err := writeFile(*metrics, snapshot); err != nil {
				fail("%v", err)
			}
			fmt.Fprintf(os.Stderr, "vgiwsim: wrote metrics snapshot (%s, %d metrics) to %s\n",
				trace.MetricsSchema, len(rc.reg.Names()), *metrics)
		}
	}

	if len(specs) == 1 {
		if err := runOne(os.Stdout, specs[0], rc); err != nil {
			fail("%v", err)
		}
		finish()
		return
	}

	// Several kernels: fan the runs across a worker pool, buffering each
	// kernel's report so the output stays in registry order. Each run builds
	// its own instance and machine, so results match a serial sweep.
	outs := make([]bytes.Buffer, len(specs))
	errs := make([]error, len(specs))
	bench.Options{Parallelism: *parallel}.ForEach(len(specs), func(i int) {
		errs[i] = runOne(&outs[i], specs[i], rc)
	})

	failed := 0
	for i := range specs {
		os.Stdout.Write(outs[i].Bytes())
		if errs[i] != nil {
			failed++
			fmt.Fprintf(os.Stderr, "vgiwsim: %s: %v\n", specs[i].Name, errs[i])
		}
		fmt.Println()
	}
	if failed > 0 {
		fail("%d of %d kernels failed", failed, len(specs))
	}
	finish()
}

// runCfg carries the per-run options (shared across worker goroutines; the
// sink and registry are internally locked).
type runCfg struct {
	arch     string
	scale    int
	blocks   bool
	grid     bool
	timeline bool
	sink     *trace.Sink
	reg      *trace.Registry
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resolveSpecs expands the -kernel argument: a single name, a comma list, or
// "all" for the whole registry.
func resolveSpecs(arg string) ([]kernels.Spec, error) {
	if arg == "all" {
		return kernels.All(), nil
	}
	var specs []kernels.Spec
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		spec, ok := kernels.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q (use -list)", n)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no kernel given (use -list)")
	}
	return specs, nil
}

// runOne builds and runs one kernel on one architecture, writing the report
// to w and validating the output against the host reference.
func runOne(w io.Writer, spec kernels.Spec, rc runCfg) error {
	inst, err := spec.Build(rc.scale)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	fmt.Fprintf(w, "kernel %s: %d threads, %d blocks, %d instructions\n",
		spec.Name, inst.Launch.Threads(), len(inst.Kernel.Blocks), inst.Kernel.NumInstrs())

	switch rc.arch {
	case "vgiw":
		err = runVGIW(w, inst, rc)
	case "simt":
		err = runSIMT(w, inst, rc)
	case "sgmf":
		err = runSGMF(w, inst, rc)
	default:
		return fmt.Errorf("unknown architecture %q", rc.arch)
	}
	if err != nil {
		return err
	}

	if err := inst.Check(inst.Global); err != nil {
		return fmt.Errorf("OUTPUT VALIDATION FAILED: %w", err)
	}
	fmt.Fprintln(w, "output validated against the host reference.")
	return nil
}

func runVGIW(w io.Writer, inst *kernels.Instance, rc runCfg) error {
	cfg := core.DefaultConfig()
	if rc.grid {
		cfg.Engine.Profile = true
	}
	cfg.Engine.Trace = rc.sink
	m, err := core.NewMachine(cfg)
	if err != nil {
		return err
	}
	ck, err := m.Compile(inst.Kernel)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	res, err := m.Run(ck, inst.Launch, inst.Global)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if rc.reg != nil {
		bench.FoldVGIW(rc.reg, inst.Kernel.Name, res)
	}
	e := power.VGIW(res, power.DefaultTable())
	fmt.Fprintf(w, "VGIW: %d cycles, %d tiles (tile size %d)\n", res.Cycles, res.Tiles, res.TileSize)
	fmt.Fprintf(w, "  reconfigurations: %d (%.3f%% of runtime)\n", res.Reconfigs, res.ConfigOverhead()*100)
	fmt.Fprintf(w, "  LVC: %d loads, %d stores (%.1f%% hit rate)\n", res.LVCLoads, res.LVCStores, hitPct(res))
	fmt.Fprintf(w, "  CVT: %d reads, %d writes\n", res.CVTReads, res.CVTWrites)
	fmt.Fprintf(w, "  ops by unit class: %v\n", res.Ops)
	fmt.Fprintf(w, "  energy: %.2f uJ (core %.2f, L1 %.2f, L2 %.2f, MC %.2f, DRAM %.2f)\n",
		e.SystemLevel()/1e6, e.Core/1e6, e.L1/1e6, e.L2/1e6, e.MC/1e6, e.DRAM/1e6)
	if rc.blocks {
		fmt.Fprintln(w, "  block schedule (block, threads, cycles):")
		for _, br := range res.BlockRuns {
			fmt.Fprintf(w, "    @%d %-18s %6d threads %8d cycles\n",
				br.Block, ck.Kernel.Blocks[br.Block].Label, br.Threads, br.Cycles)
		}
	}
	if rc.grid {
		printGrid(w, m, res)
	}
	if rc.timeline {
		printTimeline(w, ck, res)
	}
	return nil
}

// printTimeline renders the BBS schedule as a timeline: one bar per scheduled
// vector, positioned by start cycle (the control-flow-coalescing Gantt).
func printTimeline(w io.Writer, ck *compile.CompiledKernel, res *core.Result) {
	if len(res.BlockRuns) == 0 {
		return
	}
	const width = 72
	scale := float64(width) / float64(res.Cycles)
	fmt.Fprintf(w, "  schedule timeline (%d cycles across %d chars):\n", res.Cycles, width)
	shown := res.BlockRuns
	const maxRows = 40
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	for _, br := range shown {
		startCol := int(float64(br.Start) * scale)
		barLen := int(float64(br.Cycles)*scale + 0.5)
		if barLen < 1 {
			barLen = 1
		}
		if startCol+barLen > width {
			barLen = width - startCol
		}
		bar := make([]byte, width)
		for i := range bar {
			bar[i] = ' '
		}
		for i := 0; i < barLen; i++ {
			bar[startCol+i] = '#'
		}
		fmt.Fprintf(w, "    @%-2d %-14s |%s| %d thr\n",
			br.Block, ck.Kernel.Blocks[br.Block].Label, string(bar), br.Threads)
	}
	if len(res.BlockRuns) > maxRows {
		fmt.Fprintf(w, "    ... %d more schedules\n", len(res.BlockRuns)-maxRows)
	}
}

// printGrid renders the fabric as a heatmap: one cell per unit, showing the
// unit class and its share of all executed operations.
func printGrid(w io.Writer, m *core.Machine, res *core.Result) {
	g := m.Grid()
	issues := make([]uint64, g.NumUnits())
	var total uint64
	for _, br := range res.BlockRuns {
		if br.Stats == nil || br.Stats.UnitIssues == nil {
			continue
		}
		for u, n := range br.Stats.UnitIssues {
			issues[u] += n
			total += n
		}
	}
	if total == 0 {
		return
	}
	var peak uint64
	for _, n := range issues {
		if n > peak {
			peak = n
		}
	}
	cfg := g.Config()
	cells := make([][]string, cfg.Rows)
	for y := range cells {
		cells[y] = make([]string, cfg.Cols)
	}
	letter := map[kir.UnitClass]string{
		kir.ClassALU: "A", kir.ClassSCU: "X", kir.ClassLDST: "M",
		kir.ClassLVU: "V", kir.ClassSJU: "J", kir.ClassCVU: "C",
	}
	for _, u := range g.Units {
		heat := "."
		if peak > 0 && issues[u.ID] > 0 {
			level := int(9 * issues[u.ID] / peak)
			heat = fmt.Sprintf("%d", level)
		}
		cells[u.Y][u.X] = letter[u.Class] + heat
	}
	fmt.Fprintln(w, "  fabric occupancy (A=alu X=scu M=ldst V=lvu J=sju C=cvu; load 0..9, '.' idle):")
	for _, row := range cells {
		fmt.Fprint(w, "    ")
		for _, c := range row {
			fmt.Fprintf(w, "%-3s", c)
		}
		fmt.Fprintln(w)
	}
}

func runSIMT(w io.Writer, inst *kernels.Instance, rc runCfg) error {
	ck, err := compile.Compile(inst.Kernel)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	cfg := simt.DefaultConfig()
	cfg.Trace = rc.sink
	res, err := simt.NewMachine(cfg).RunCtx(context.Background(), ck, inst.Launch, inst.Global)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if rc.reg != nil {
		bench.FoldSIMT(rc.reg, inst.Kernel.Name, res)
	}
	e := power.SIMT(res, power.DefaultTable())
	fmt.Fprintf(w, "SIMT (Fermi-like SM): %d cycles\n", res.Cycles)
	fmt.Fprintf(w, "  warp instructions: %d (%d thread-instructions, %d masked lanes)\n",
		res.WarpInstrs, res.ThreadInstrs, res.MaskedLanes)
	fmt.Fprintf(w, "  register file: %d reads, %d writes\n", res.RFReads, res.RFWrites)
	fmt.Fprintf(w, "  divergences: %d, barriers: %d\n", res.Divergences, res.Barriers)
	fmt.Fprintf(w, "  L1 transactions: %d, shared transactions: %d\n", res.L1Trans, res.ShTrans)
	fmt.Fprintf(w, "  energy: %.2f uJ (core %.2f)\n", e.SystemLevel()/1e6, e.Core/1e6)
	return nil
}

func runSGMF(w io.Writer, inst *kernels.Instance, rc runCfg) error {
	cfg := sgmf.DefaultConfig()
	cfg.Engine.Trace = rc.sink
	m, err := sgmf.NewMachine(cfg)
	if err != nil {
		return err
	}
	res, err := m.Run(inst.Kernel, inst.Launch, inst.Global)
	if err != nil {
		return fmt.Errorf("run: %w (SGMF cannot map kernels with loops, barriers, or oversized graphs)", err)
	}
	if rc.reg != nil {
		bench.FoldSGMF(rc.reg, inst.Kernel.Name, res)
	}
	e := power.SGMF(res, power.DefaultTable())
	fmt.Fprintf(w, "SGMF: %d cycles\n", res.Cycles)
	fmt.Fprintf(w, "  whole-kernel graph: %d nodes, %d replicas\n", res.GraphNodes, res.Replicas)
	fmt.Fprintf(w, "  predicated-off memory ops (divergence waste): %d\n", res.SkippedMemOps)
	fmt.Fprintf(w, "  energy: %.2f uJ (core %.2f)\n", e.SystemLevel()/1e6, e.Core/1e6)
	return nil
}

func hitPct(res *core.Result) float64 {
	acc := res.LVCStats.Accesses()
	if acc == 0 {
		return 100
	}
	return 100 * float64(acc-res.LVCStats.Misses()) / float64(acc)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vgiwsim: "+format+"\n", args...)
	os.Exit(1)
}
