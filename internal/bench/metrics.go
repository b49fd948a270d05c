package bench

import (
	"sort"
	"strings"

	"vgiw/internal/core"
	"vgiw/internal/engine"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
	"vgiw/internal/trace"
)

// Metric-name layout: "<kernel>/<backend>.<metric>". The set of metric
// suffixes per backend is fixed (per-class op counters are emitted densely,
// zeros included), so the names a suite produces depend only on the kernel
// registry and which kernels are SGMF-mappable — never on run outcomes. The
// root tracecheck test pins the suffix set against a golden file.

// foldMem folds a memory-system snapshot under prefix ("<kernel>/<backend>.").
func foldMem(reg *trace.Registry, prefix string, ms mem.SystemStats) {
	reg.Set(prefix+"mem.l1.accesses", ms.L1.Accesses())
	reg.Set(prefix+"mem.l1.misses", ms.L1.Misses())
	reg.Set(prefix+"mem.l2.accesses", ms.L2.Accesses())
	reg.Set(prefix+"mem.l2.misses", ms.L2.Misses())
	reg.Set(prefix+"mem.dram.reads", ms.DRAM.Reads)
	reg.Set(prefix+"mem.dram.writes", ms.DRAM.Writes)
}

// foldCounts folds the fabric's event counts under prefix. Every op class
// appears, zeros included, so metric names never depend on which ops a
// kernel happens to use. Skipped memory operations are SGMF's own metric.
func foldCounts(reg *trace.Registry, prefix string, c engine.Counts) {
	reg.Set(prefix+"fp_ops", c.FPOps)
	reg.Set(prefix+"token_hops", c.TokenHops)
	reg.Set(prefix+"token_transfers", c.TokenTransfers)
	reg.Set(prefix+"global_accesses", c.GlobalAccesses)
	reg.Set(prefix+"shared_accesses", c.SharedAccesses)
	for cl, n := range c.Ops {
		reg.Set(prefix+"ops."+strings.ToLower(kir.UnitClass(cl).String()), n)
	}
}

// FoldVGIW folds one VGIW result into the registry under
// "<kernel>/vgiw.". Block-vector shapes (threads per coalesced vector,
// cycles per block run) land in histograms — the distribution is the paper's
// §3.2 story, not just the mean.
func FoldVGIW(reg *trace.Registry, kernel string, r *core.Result) {
	p := kernel + "/vgiw."
	reg.Set(p+"cycles", uint64(r.Cycles))
	reg.Set(p+"tiles", uint64(r.Tiles))
	reg.Set(p+"tile_size", uint64(r.TileSize))
	reg.Set(p+"reconfigs", r.Reconfigs)
	reg.Set(p+"config_cycles", uint64(r.ConfigCycles))
	reg.Set(p+"block_runs", uint64(len(r.BlockRuns)))
	reg.Set(p+"cvt.reads", r.CVTReads)
	reg.Set(p+"cvt.writes", r.CVTWrites)
	reg.Set(p+"lvc.loads", r.LVCLoads)
	reg.Set(p+"lvc.stores", r.LVCStores)
	reg.Set(p+"lvc.accesses", r.LVCStats.Accesses())
	reg.Set(p+"lvc.misses", r.LVCStats.Misses())
	foldCounts(reg, p, r.Counts)
	foldMem(reg, p, r.MemStats)
	for _, br := range r.BlockRuns {
		reg.Observe(p+"block_threads", int64(br.Threads))
		reg.Observe(p+"block_cycles", br.Cycles)
	}
}

// FoldSIMT folds one SIMT result into the registry under "<kernel>/simt.".
func FoldSIMT(reg *trace.Registry, kernel string, r *simt.Result) {
	p := kernel + "/simt."
	reg.Set(p+"cycles", uint64(r.Cycles))
	reg.Set(p+"warp_instrs", r.WarpInstrs)
	reg.Set(p+"thread_instrs", r.ThreadInstrs)
	reg.Set(p+"masked_lanes", r.MaskedLanes)
	reg.Set(p+"rf.reads", r.RFReads)
	reg.Set(p+"rf.writes", r.RFWrites)
	reg.Set(p+"rf.warp_accesses", r.RFWarpAccesses)
	reg.Set(p+"alu_ops", r.ALUOps)
	reg.Set(p+"fp_ops", r.FPOps)
	reg.Set(p+"sfu_ops", r.SFUOps)
	reg.Set(p+"mem_ops", r.MemOps)
	reg.Set(p+"l1_trans", r.L1Trans)
	reg.Set(p+"sh_trans", r.ShTrans)
	reg.Set(p+"divergences", r.Divergences)
	reg.Set(p+"barriers", r.Barriers)
	foldMem(reg, p, r.MemStats)
}

// FoldSGMF folds one SGMF result into the registry under "<kernel>/sgmf.".
func FoldSGMF(reg *trace.Registry, kernel string, r *sgmf.Result) {
	p := kernel + "/sgmf."
	reg.Set(p+"cycles", uint64(r.Cycles))
	reg.Set(p+"graph_nodes", uint64(r.GraphNodes))
	reg.Set(p+"replicas", uint64(r.Replicas))
	reg.Set(p+"skipped_mem_ops", r.SkippedMemOps)
	foldCounts(reg, p, r.Counts)
	foldMem(reg, p, r.MemStats)
}

// FoldRun folds one kernel's results (every backend that ran) into the
// registry.
func FoldRun(reg *trace.Registry, kr *KernelRun) {
	name := kr.Spec.Name
	if kr.VGIW != nil {
		FoldVGIW(reg, name, kr.VGIW)
	}
	if kr.SIMT != nil {
		FoldSIMT(reg, name, kr.SIMT)
	}
	if kr.SGMF != nil {
		FoldSGMF(reg, name, kr.SGMF)
	}
}

// CollectMetrics builds a registry from a completed sweep: per-kernel
// per-backend metrics plus suite-level counts.
func CollectMetrics(runs []*KernelRun) *trace.Registry {
	reg := trace.NewRegistry()
	sgmfRuns := uint64(0)
	for _, kr := range runs {
		FoldRun(reg, kr)
		if kr.SGMF != nil {
			sgmfRuns++
		}
	}
	reg.Set("suite/kernels", uint64(len(runs)))
	reg.Set("suite/sgmf_kernels", sgmfRuns)
	return reg
}

// MetricSuffixes extracts the sorted set of distinct metric suffixes (the
// part after "<kernel>/") a registry holds. Kernel names vary with the
// registry; the suffix set is the stable contract the golden test pins.
func MetricSuffixes(reg *trace.Registry) []string {
	seen := map[string]bool{}
	for _, n := range reg.Names() {
		s := n
		if i := strings.IndexByte(n, '/'); i >= 0 {
			s = n[i+1:]
		}
		seen[s] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
