package bench

import (
	"encoding/json"
	"io"
	"time"

	"vgiw/internal/trace"
)

// JSONRun is the machine-readable form of one benchmark's results.
type JSONRun struct {
	Kernel      string `json:"kernel"`
	App         string `json:"app"`
	Class       string `json:"class"`
	Blocks      int    `json:"blocks"`
	PaperBlocks int    `json:"paper_blocks"`
	Threads     int    `json:"threads"`

	VGIWCycles int64 `json:"vgiw_cycles"`
	SIMTCycles int64 `json:"simt_cycles"`
	SGMFCycles int64 `json:"sgmf_cycles,omitempty"`

	Speedup       float64 `json:"speedup_vs_fermi"`
	SpeedupVsSGMF float64 `json:"speedup_vs_sgmf,omitempty"`
	LVCOverRF     float64 `json:"lvc_over_rf"`
	EffSystem     float64 `json:"energy_eff_system"`
	EffDie        float64 `json:"energy_eff_die"`
	EffCore       float64 `json:"energy_eff_core"`
	EffVsSGMF     float64 `json:"energy_eff_vs_sgmf,omitempty"`
	ReconfigShare float64 `json:"reconfig_share"`
	Reconfigs     uint64  `json:"reconfigs"`
	LVCAccesses   uint64  `json:"lvc_accesses"`
	RFAccesses    uint64  `json:"rf_accesses"`
	EnergyVGIWPJ  float64 `json:"energy_vgiw_pj"`
	EnergyFermiPJ float64 `json:"energy_fermi_pj"`

	// ElapsedMS is host wall-clock time for this kernel's simulations —
	// simulator performance telemetry, not a simulated metric. The stage
	// fields split it by pipeline stage; artifact-build stages (instance,
	// compile, place) are attributed to the run that built the shared
	// artifact, so cache-served runs report (near) zero there.
	ElapsedMS  float64 `json:"elapsed_ms,omitempty"`
	InstanceMS float64 `json:"instance_ms,omitempty"`
	CompileMS  float64 `json:"compile_ms,omitempty"`
	PlaceMS    float64 `json:"place_ms,omitempty"`
	SimulateMS float64 `json:"simulate_ms,omitempty"`
}

// JSONReport bundles the whole suite plus the headline geomeans and, when
// produced from a SuiteResult, the harness's own performance telemetry
// (wall clock, parallelism, allocations) so future optimization PRs have a
// trajectory to regress against.
type JSONReport struct {
	Scale int       `json:"scale"`
	Runs  []JSONRun `json:"runs"`

	GeomeanSpeedup   float64 `json:"geomean_speedup"`
	GeomeanEffSystem float64 `json:"geomean_eff_system"`
	GeomeanEffCore   float64 `json:"geomean_eff_core"`
	GeomeanVsSGMF    float64 `json:"geomean_speedup_vs_sgmf"`
	MeanLVCOverRF    float64 `json:"mean_lvc_over_rf"`

	// Harness telemetry (host-side, omitted by the plain BuildJSON path).
	WallClockMS float64 `json:"wall_clock_ms,omitempty"`
	Parallelism int     `json:"parallelism,omitempty"`
	Mallocs     uint64  `json:"mallocs,omitempty"`

	// Per-stage host time summed over all runs (user time: can exceed
	// wall clock under parallelism).
	StageInstanceMS float64 `json:"stage_instance_ms,omitempty"`
	StageCompileMS  float64 `json:"stage_compile_ms,omitempty"`
	StagePlaceMS    float64 `json:"stage_place_ms,omitempty"`
	StageSimulateMS float64 `json:"stage_simulate_ms,omitempty"`

	// Artifact-cache accounting for the sweep (absent under -no-cache).
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`

	// Metrics is the unified registry flattened to name -> value
	// ("<kernel>/<backend>.<metric>"; histograms expand to
	// .count/.sum/.min/.max/.mean_x1000). Present on suite reports.
	MetricsSchema string            `json:"metrics_schema,omitempty"`
	Metrics       map[string]uint64 `json:"metrics,omitempty"`
}

// BuildJSON converts harness results into the export form.
func BuildJSON(runs []*KernelRun, scale int) JSONReport {
	rep := JSONReport{Scale: scale}
	var sp, effS, effC, spSGMF, lvc []float64
	for _, r := range runs {
		jr := JSONRun{
			Kernel:        r.Spec.Name,
			App:           r.Spec.App,
			Class:         string(r.Spec.Class),
			Blocks:        r.Blocks,
			PaperBlocks:   r.Spec.PaperBlocks,
			Threads:       r.VGIW.Threads,
			VGIWCycles:    r.VGIW.Cycles,
			SIMTCycles:    r.SIMT.Cycles,
			Speedup:       r.Speedup(),
			LVCOverRF:     r.LVCOverRF(),
			EffSystem:     r.EnergyEff("system"),
			EffDie:        r.EnergyEff("die"),
			EffCore:       r.EnergyEff("core"),
			ReconfigShare: r.VGIW.ConfigOverhead(),
			Reconfigs:     r.VGIW.Reconfigs,
			LVCAccesses:   r.VGIW.LVCLoads + r.VGIW.LVCStores,
			RFAccesses:    r.SIMT.RFReads + r.SIMT.RFWrites,
			EnergyVGIWPJ:  r.EnergyVGIW.SystemLevel(),
			EnergyFermiPJ: r.EnergySIMT.SystemLevel(),
		}
		jr.ElapsedMS = float64(r.Elapsed.Microseconds()) / 1e3
		jr.InstanceMS = durMS(r.Stages.Instance)
		jr.CompileMS = durMS(r.Stages.Compile)
		jr.PlaceMS = durMS(r.Stages.Place)
		jr.SimulateMS = durMS(r.Stages.Simulate)
		if r.SGMF != nil {
			jr.SGMFCycles = r.SGMF.Cycles
			jr.SpeedupVsSGMF = r.SpeedupVsSGMF()
			jr.EffVsSGMF = r.EnergyEffVsSGMF()
			spSGMF = append(spSGMF, jr.SpeedupVsSGMF)
		}
		sp = append(sp, jr.Speedup)
		effS = append(effS, jr.EffSystem)
		effC = append(effC, jr.EffCore)
		lvc = append(lvc, jr.LVCOverRF)
		rep.Runs = append(rep.Runs, jr)
	}
	rep.GeomeanSpeedup = Geomean(sp)
	rep.GeomeanEffSystem = Geomean(effS)
	rep.GeomeanEffCore = Geomean(effC)
	rep.GeomeanVsSGMF = Geomean(spSGMF)
	rep.MeanLVCOverRF = mean(lvc)
	return rep
}

// Report converts a suite sweep to the export form, including the harness
// telemetry fields.
func (s *SuiteResult) Report(scale int) JSONReport {
	rep := BuildJSON(s.Runs, scale)
	rep.WallClockMS = float64(s.WallClock.Microseconds()) / 1e3
	rep.Parallelism = s.Parallelism
	rep.Mallocs = s.Mallocs
	rep.StageInstanceMS = durMS(s.Stages.Instance)
	rep.StageCompileMS = durMS(s.Stages.Compile)
	rep.StagePlaceMS = durMS(s.Stages.Place)
	rep.StageSimulateMS = durMS(s.Stages.Simulate)
	rep.CacheHits = s.Cache.HitsTotal()
	rep.CacheMisses = s.Cache.MissesTotal()
	if s.Metrics != nil {
		rep.MetricsSchema = trace.MetricsSchema
		rep.Metrics = s.Metrics.Flat()
	}
	return rep
}

// durMS renders a host duration in milliseconds with microsecond precision.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// Canonical returns a copy of the report with every host-side telemetry
// field zeroed: wall clock, per-stage splits, allocation counts, cache
// accounting, and the per-run elapsed/stage timings. What remains is exactly
// the simulated content, which is deterministic — so two canonical reports
// over the same matrix are byte-identical regardless of which host, how
// many workers, or which path (one process or one vgiwd) produced the runs.
// The determinism tests and the daemon crosscheck compare canonical forms.
func (r JSONReport) Canonical() JSONReport {
	r.WallClockMS = 0
	r.Parallelism = 0
	r.Mallocs = 0
	r.StageInstanceMS = 0
	r.StageCompileMS = 0
	r.StagePlaceMS = 0
	r.StageSimulateMS = 0
	r.CacheHits = 0
	r.CacheMisses = 0
	runs := make([]JSONRun, len(r.Runs))
	copy(runs, r.Runs)
	for i := range runs {
		runs[i].ElapsedMS = 0
		runs[i].InstanceMS = 0
		runs[i].CompileMS = 0
		runs[i].PlaceMS = 0
		runs[i].SimulateMS = 0
	}
	r.Runs = runs
	return r
}

// WriteJSON emits the suite report (with telemetry) as indented JSON.
func (s *SuiteResult) WriteJSON(w io.Writer, scale int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Report(scale))
}
