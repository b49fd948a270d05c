package bench

import "testing"

// TestCanonicalStripsHostTelemetry pins that Canonical zeroes every
// host-side field (and only copies, never mutates, the receiver's rows).
func TestCanonicalStripsHostTelemetry(t *testing.T) {
	rep := JSONReport{
		Scale:           2,
		Runs:            []JSONRun{{Kernel: "k", ElapsedMS: 1, InstanceMS: 2, CompileMS: 3, PlaceMS: 4, SimulateMS: 5, VGIWCycles: 77}},
		WallClockMS:     9,
		Parallelism:     8,
		Mallocs:         7,
		StageInstanceMS: 6,
		StageCompileMS:  5,
		StagePlaceMS:    4,
		StageSimulateMS: 3,
		CacheHits:       2,
		CacheMisses:     1,
	}
	c := rep.Canonical()
	if c.WallClockMS != 0 || c.Parallelism != 0 || c.Mallocs != 0 ||
		c.StageInstanceMS != 0 || c.StageCompileMS != 0 || c.StagePlaceMS != 0 || c.StageSimulateMS != 0 ||
		c.CacheHits != 0 || c.CacheMisses != 0 {
		t.Errorf("report-level telemetry survived Canonical: %+v", c)
	}
	if r := c.Runs[0]; r.ElapsedMS != 0 || r.InstanceMS != 0 || r.CompileMS != 0 || r.PlaceMS != 0 || r.SimulateMS != 0 {
		t.Errorf("run-level telemetry survived Canonical: %+v", r)
	}
	if c.Runs[0].VGIWCycles != 77 || c.Scale != 2 {
		t.Errorf("Canonical damaged simulated content: %+v", c)
	}
	if rep.Runs[0].ElapsedMS != 1 {
		t.Errorf("Canonical mutated the receiver's rows: %+v", rep.Runs[0])
	}
}
