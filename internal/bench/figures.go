package bench

import (
	"context"
	"errors"
	"fmt"

	"vgiw/internal/kernels"
	"vgiw/internal/report"
)

// Table1 renders the machine configuration (paper Table 1).
func Table1(opt Options) *report.Table {
	f := opt.VGIW.Fabric
	m := opt.VGIW.Mem
	t := &report.Table{
		Title:   "Table 1: VGIW system configuration",
		Headers: []string{"Parameter", "Value"},
	}
	t.AddRow("VGIW core", fmt.Sprintf("%d interconnected func./LDST/control units", f.Cols*f.Rows))
	t.AddRow("Functional units", fmt.Sprintf("%d combined FPU-ALU units, %d Special Compute units", f.NumALU, f.NumSCU))
	t.AddRow("Load/Store units", fmt.Sprintf("%d Live Value Units, %d regular LDST units", f.NumLVU, f.NumLDST))
	t.AddRow("Control units", fmt.Sprintf("%d Split/Join units, %d Control Vector Units", f.NumSJU, f.NumCVU))
	t.AddRow("L1", fmt.Sprintf("%dKB, %d banks, %dB/line, %d-way, %v",
		m.L1.SizeBytes>>10, m.L1.Banks, m.L1.LineBytes, m.L1.Ways, m.L1.Policy))
	t.AddRow("L2", fmt.Sprintf("%dKB, %d banks, %dB/line, %d-way",
		m.L2.SizeBytes>>10, m.L2.Banks, m.L2.LineBytes, m.L2.Ways))
	t.AddRow("GDDR5 DRAM", fmt.Sprintf("%d banks, %d channels", m.DRAM.Banks, m.DRAM.Channels))
	t.AddRow("LVC", fmt.Sprintf("%dKB, %d banks", opt.VGIW.LVC.SizeBytes>>10, opt.VGIW.LVC.Banks))
	t.AddRow("Reconfiguration", fmt.Sprintf("%d cycles", f.ConfigCycles))
	t.AddRow("Token buffer depth", fmt.Sprintf("%d virtual channels/unit", f.TokenBufDepth))
	return t
}

// Table2 renders the benchmark inventory with measured block counts next to
// the paper's (paper Table 2).
func Table2(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "Table 2: benchmark kernels",
		Headers: []string{"App", "Kernel", "Blocks", "Paper", "Class", "SGMF", "Description"},
	}
	for _, r := range runs {
		t.AddRow(r.Spec.App, r.Spec.Name, r.Blocks, r.Spec.PaperBlocks,
			string(r.Spec.Class), yesNo(r.SGMF != nil), r.Spec.Description)
	}
	return t
}

// Fig3 renders LVC accesses as a fraction of RF accesses (paper Figure 3;
// the paper reports an average of roughly one tenth).
func Fig3(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "Figure 3: LVC accesses / GPGPU RF accesses",
		Headers: []string{"Kernel", "LVC accesses", "RF accesses", "Ratio"},
	}
	var ratios []float64
	for _, r := range runs {
		ratio := r.LVCOverRF()
		ratios = append(ratios, ratio)
		t.AddRow(r.Spec.Name, r.VGIW.LVCLoads+r.VGIW.LVCStores,
			r.SIMT.RFReads+r.SIMT.RFWrites, ratio)
	}
	t.AddRow("MEAN", "", "", mean(ratios))
	return t
}

// Fig7 renders the speedup of VGIW over the Fermi baseline (paper Figure 7:
// average >3x, range 0.9x-11x).
func Fig7(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "Figure 7: speedup of VGIW over Fermi",
		Headers: []string{"Kernel", "Class", "Fermi cycles", "VGIW cycles", "Speedup"},
	}
	var sp []float64
	for _, r := range runs {
		s := r.Speedup()
		sp = append(sp, s)
		t.AddRow(r.Spec.Name, string(r.Spec.Class), r.SIMT.Cycles, r.VGIW.Cycles, s)
	}
	t.AddRow("GEOMEAN", "", "", "", Geomean(sp))
	return t
}

// Fig8 renders the speedup of VGIW over SGMF on the SGMF-mappable subset
// (paper Figure 8: average ~1.45x, range 0.4x-3.1x).
func Fig8(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "Figure 8: speedup of VGIW over SGMF (SGMF-mappable kernels)",
		Headers: []string{"Kernel", "SGMF cycles", "VGIW cycles", "Speedup"},
	}
	var sp []float64
	for _, r := range runs {
		if r.SGMF == nil {
			continue
		}
		s := r.SpeedupVsSGMF()
		sp = append(sp, s)
		t.AddRow(r.Spec.Name, r.SGMF.Cycles, r.VGIW.Cycles, s)
	}
	t.AddRow("GEOMEAN", "", "", Geomean(sp))
	return t
}

// Fig9 renders system-level energy efficiency of VGIW over Fermi (paper
// Figure 9: average 1.75x, range 0.7x-7x).
func Fig9(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "Figure 9: energy efficiency of VGIW over Fermi (system level)",
		Headers: []string{"Kernel", "Fermi energy (uJ)", "VGIW energy (uJ)", "Efficiency"},
	}
	var eff []float64
	for _, r := range runs {
		e := r.EnergyEff("system")
		eff = append(eff, e)
		t.AddRow(r.Spec.Name, pj2uj(r.EnergySIMT.SystemLevel()), pj2uj(r.EnergyVGIW.SystemLevel()), e)
	}
	t.AddRow("GEOMEAN", "", "", Geomean(eff))
	return t
}

// Fig10 renders the energy-efficiency ratio at system, die and core levels
// (paper Figure 10: the win concentrates in the compute engine).
func Fig10(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "Figure 10: VGIW/Fermi energy efficiency by level",
		Headers: []string{"Kernel", "System", "Die", "Core"},
	}
	var sys, die, cor []float64
	for _, r := range runs {
		s, d, c := r.EnergyEff("system"), r.EnergyEff("die"), r.EnergyEff("core")
		sys, die, cor = append(sys, s), append(die, d), append(cor, c)
		t.AddRow(r.Spec.Name, s, d, c)
	}
	t.AddRow("GEOMEAN", Geomean(sys), Geomean(die), Geomean(cor))
	return t
}

// Fig11 renders energy efficiency of VGIW over SGMF (paper Figure 11:
// average ~1.33x).
func Fig11(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "Figure 11: energy efficiency of VGIW over SGMF",
		Headers: []string{"Kernel", "SGMF energy (uJ)", "VGIW energy (uJ)", "Efficiency"},
	}
	var eff []float64
	for _, r := range runs {
		if r.SGMF == nil {
			continue
		}
		e := r.EnergyEffVsSGMF()
		eff = append(eff, e)
		t.AddRow(r.Spec.Name, pj2uj(r.EnergySGMF.SystemLevel()), pj2uj(r.EnergyVGIW.SystemLevel()), e)
	}
	t.AddRow("GEOMEAN", "", "", Geomean(eff))
	return t
}

// ReconfigTable renders the reconfiguration overhead statistic of §3.2
// (paper: average 0.18% of runtime, median below 0.1%).
func ReconfigTable(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "Reconfiguration overhead (§3.2)",
		Headers: []string{"Kernel", "Reconfigs", "Config cycles", "Runtime", "Overhead %"},
	}
	var ohs []float64
	for _, r := range runs {
		oh := r.VGIW.ConfigOverhead() * 100
		ohs = append(ohs, oh)
		t.AddRow(r.Spec.Name, r.VGIW.Reconfigs, r.VGIW.ConfigCycles, r.VGIW.Cycles, oh)
	}
	t.AddRow("MEAN", "", "", "", mean(ohs))
	t.AddRow("MEDIAN", "", "", "", median(ohs))
	return t
}

// UtilizationTable is an extra diagnostic: replication factors per kernel.
func UtilizationTable(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title:   "VGIW per-kernel execution profile",
		Headers: []string{"Kernel", "Blocks", "Tiles", "TileSize", "MaxReplicas", "CVT R/W", "LVC hit%"},
	}
	for _, r := range runs {
		maxRep := 0
		for _, rep := range r.VGIW.ReplicasOf {
			if rep > maxRep {
				maxRep = rep
			}
		}
		hitPct := 0.0
		if acc := r.VGIW.LVCStats.Accesses(); acc > 0 {
			hitPct = 100 * float64(acc-r.VGIW.LVCStats.Misses()) / float64(acc)
		}
		t.AddRow(r.Spec.Name, r.Blocks, r.VGIW.Tiles, r.VGIW.TileSize, maxRep,
			fmt.Sprintf("%d/%d", r.VGIW.CVTReads, r.VGIW.CVTWrites), hitPct)
	}
	return t
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func pj2uj(pj float64) float64 { return pj / 1e6 }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// LVCSweep is the LVC design-space exploration the paper omits ("for
// brevity, we do not present a full design space exploration of the LVC size
// and only show results for a 64KB LVC", §3.4): VGIW cycles on the
// live-value-heavy kernels across LVC sizes. The kernel×size cells fan out
// across the options' worker pool and go through the same cache lookups as
// RunOneCtx's VGIW run. With a cache, the compile/place artifact's key
// excludes the LVC capacity, so each kernel is compiled and placed exactly
// once for the whole sweep; the VGIW result tier's key holds the capacity
// only where it can evict, so sizes that yield the same machine, for the
// sweep or for a figure run sharing its cache, are simulated once.
func LVCSweep(opt Options, sizesKB []int, kernelNames []string) (*report.Table, error) {
	specs := make([]kernels.Spec, len(kernelNames))
	for i, name := range kernelNames {
		spec, ok := kernels.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %s", name)
		}
		specs[i] = spec
	}

	nCells := len(specs) * len(sizesKB)
	cycles := make([]int64, nCells)
	errs := make([]error, nCells)
	ctx := context.Background()
	opt.ForEach(nCells, func(cell int) {
		spec, kb := specs[cell/len(sizesKB)], sizesKB[cell%len(sizesKB)]
		cycles[cell], errs[cell] = lvcCell(ctx, opt, spec, kb)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "LVC size sweep (extension: §3.4 design space)",
		Headers: append([]string{"Kernel"}, kbHeaders(sizesKB)...),
	}
	for i, spec := range specs {
		row := []any{spec.Name}
		for j := range sizesKB {
			row = append(row, cycles[i*len(sizesKB)+j])
		}
		t.AddRow(row...)
	}
	return t, nil
}

// lvcCell returns one kernel's VGIW cycle count at one LVC size, from the
// options' VGIW result tier.
func lvcCell(ctx context.Context, opt Options, spec kernels.Spec, kb int) (int64, error) {
	cfg := opt.VGIW
	cfg.LVC.SizeBytes = kb << 10
	w, _, err := opt.Cache.workload(ctx, spec, opt.Scale)
	if err != nil {
		return 0, fmt.Errorf("%s: build: %w", spec.Name, err)
	}
	res, _, err := opt.Cache.vgiwRun(ctx, w, cfg)
	if err != nil {
		return 0, fmt.Errorf("LVC %d KB: %w", kb, err)
	}
	return res.Cycles, nil
}

func kbHeaders(sizesKB []int) []string {
	out := make([]string, len(sizesKB))
	for i, kb := range sizesKB {
		out[i] = fmt.Sprintf("%dKB", kb)
	}
	return out
}

// EnergyBreakdown renders the absolute per-component energy of both
// machines for every kernel — the data behind Figure 10's ratios.
func EnergyBreakdown(runs []*KernelRun) *report.Table {
	t := &report.Table{
		Title: "Energy breakdown (uJ): VGIW vs Fermi per component",
		Headers: []string{"Kernel",
			"V.core", "V.L1", "V.L2", "V.MC", "V.DRAM",
			"F.core", "F.L1", "F.L2", "F.MC", "F.DRAM"},
	}
	for _, r := range runs {
		v, f := r.EnergyVGIW, r.EnergySIMT
		t.AddRow(r.Spec.Name,
			pj2uj(v.Core), pj2uj(v.L1), pj2uj(v.L2), pj2uj(v.MC), pj2uj(v.DRAM),
			pj2uj(f.Core), pj2uj(f.L1), pj2uj(f.L2), pj2uj(f.MC), pj2uj(f.DRAM))
	}
	return t
}
