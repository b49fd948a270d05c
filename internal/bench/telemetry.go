package bench

import (
	"strconv"

	"vgiw/internal/report"
)

// TelemetryTable renders the harness's host-side performance telemetry: one
// row per kernel with its wall-clock split by pipeline stage, a TOTAL row,
// and the sweep's cache accounting, one hits/misses row per tier. All values
// are host timing — this table is for regressing the simulator's own
// performance, not the simulation.
func TelemetryTable(s *SuiteResult) *report.Table {
	t := &report.Table{
		Title: "Harness telemetry: host time per kernel (ms; artifact builds attributed to the run that built them)",
		Headers: []string{"kernel", "elapsed_ms", "instance_ms", "compile_ms",
			"place_ms", "simulate_ms"},
	}
	for _, kr := range s.Runs {
		t.AddRow(kr.Spec.Name, durMS(kr.Elapsed), durMS(kr.Stages.Instance),
			durMS(kr.Stages.Compile), durMS(kr.Stages.Place), durMS(kr.Stages.Simulate))
	}
	t.AddRow("TOTAL", durMS(s.WallClock), durMS(s.Stages.Instance),
		durMS(s.Stages.Compile), durMS(s.Stages.Place), durMS(s.Stages.Simulate))
	// Cache accounting as plain integers among the float-formatted timing
	// rows (AddRow only reformats float cells).
	for tier := Tier(0); tier < numTiers; tier++ {
		t.AddRow("cache "+tier.String()+" hits/misses",
			strconv.FormatUint(s.Cache.Hits[tier], 10),
			strconv.FormatUint(s.Cache.Misses[tier], 10), "", "", "")
	}
	return t
}
