package bench

import (
	"testing"

	"vgiw/internal/mem"
)

func TestJobSpecNormalizeDefaults(t *testing.T) {
	s := JobSpec{Kernel: "bfs.kernel1"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Scale != 1 {
		t.Fatalf("Scale = %d, want 1", s.Scale)
	}
	if got := s.Specs(); len(got) != 1 || got[0].Name != "bfs.kernel1" {
		t.Fatalf("Specs() = %v", got)
	}
}

func TestJobSpecRejects(t *testing.T) {
	bad := []JobSpec{
		{},                                   // no mode
		{Kernel: "bfs.kernel1", Suite: true}, // two modes
		{Kernel: "no.such.kernel"},
		{Suite: true, Scale: 65},
		{Suite: true, Mem: "writeback2"},
		{Suite: true, TimeoutMS: -1},
		{Suite: true, TraceFilter: "vgiw"},    // filter without trace
		{Kernel: "nn.euclid", LVCKB: 1 << 53}, // LVCKB<<10 wraps negative
		{Kernel: "nn.euclid", LVCKB: 1 << 30}, // 2^33 cache lines
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d (%+v): Normalize accepted, want error", i, s)
		}
	}
}

func TestJobSpecOptionsMapping(t *testing.T) {
	s := JobSpec{Kernel: "hotspot.kernel", Scale: 2, LVCKB: 16, CVTBits: 1 << 12,
		Mem: "writethrough", SkipSGMF: true, ReplicationOff: true}
	opt, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Scale != 2 || !opt.SkipSGMF {
		t.Fatalf("scale/skipSGMF not mapped: %+v", opt)
	}
	if opt.VGIW.LVC.SizeBytes != 16<<10 {
		t.Fatalf("LVC = %d bytes, want %d", opt.VGIW.LVC.SizeBytes, 16<<10)
	}
	if opt.VGIW.CVTCapacityBits != 1<<12 {
		t.Fatalf("CVT = %d bits, want %d", opt.VGIW.CVTCapacityBits, 1<<12)
	}
	if opt.VGIW.Mem.L1.Policy != mem.WriteThrough {
		t.Fatal("L1 policy not mapped to writethrough")
	}
	if !opt.VGIW.ReplicationOff {
		t.Fatal("ReplicationOff not mapped")
	}
}

func TestJobSpecKeyIgnoresDeadline(t *testing.T) {
	a := JobSpec{Kernel: "bfs.kernel1", TimeoutMS: 50}
	b := JobSpec{Kernel: "bfs.kernel1", TimeoutMS: 5000}
	if a.Key() != b.Key() {
		t.Fatal("keys differ on TimeoutMS alone")
	}
	c := JobSpec{Kernel: "bfs.kernel1", LVCKB: 32}
	if a.Key() == c.Key() {
		t.Fatal("keys collide across different LVC configs")
	}
	d := JobSpec{Kernel: "bfs.kernel1", Trace: true}
	if a.Key() == d.Key() {
		t.Fatal("keys collide across trace on/off (trace artifact differs)")
	}
}
