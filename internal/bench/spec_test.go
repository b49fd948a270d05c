package bench

import (
	"bytes"
	"encoding/json"
	"strings"
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
}

// rejectedSpecs are specs Normalize must refuse.
var rejectedSpecs = []JobSpec{
	{}, // no kernel
	{Kernel: "no.such.kernel"},
	{Kernel: "bfs.kernel1", Scale: 65},
	{Kernel: "bfs.kernel1", Mem: "writeback2"},
	{Kernel: "bfs.kernel1", TimeoutMS: -1},
	{Kernel: "bfs.kernel1", TraceFilter: "vgiw"}, // filter without trace
	{Kernel: "nn.euclid", LVCKB: 1 << 53},        // LVCKB<<10 wraps negative
	{Kernel: "nn.euclid", LVCKB: 1 << 30},        // 2^33 cache lines
}

// removedJobKinds are request bodies for the job kinds vgiwd no longer runs:
// a whole-registry suite, kasm source and a functional-only run. Each must
// fail to decode, since the spec has no field for it.
var removedJobKinds = []string{
	`{"suite":true}`,
	`{"source":"kernel k params=0 shared=0\n@0 entry:\n  ret\n"}`,
	`{"kernel":"bfs.kernel1","fast":true}`,
}

func TestJobSpecRejects(t *testing.T) {
	for i, s := range rejectedSpecs {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d (%+v): Normalize accepted, want error", i, s)
		}
	}
	for _, body := range removedJobKinds {
		if s, err := DecodeJobSpec(strings.NewReader(body)); err == nil {
			t.Errorf("%s: decoded as %+v, want an unknown-field error", body, s)
		}
	}
}

// FuzzJobSpec drives raw request bodies through the daemon's decode path,
// then Normalize, Key and Options. Nothing may panic; a rejection is an
// error that leaves no partly applied spec behind; Normalize is idempotent,
// the key is stable under re-normalization, and every accepted spec maps
// onto harness options.
func FuzzJobSpec(f *testing.F) {
	for _, s := range rejectedSpecs {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, body := range []string{
		`{"kernel":"nn.euclid"}{"kernel":"ge.fan1"}`,
		`{"kernel":"nn.euclid"} trailing-garbage`,
		`{"kernel":"hotspot.kernel","scale":1,"lvc_kb":48}`,                                      // the sweep workload
		`{"kernel":"lud.internal","scale":1,"lvc_kb":200,"cvt_bits":69632,"mem":"writethrough"}`, // vgiwd's fresh draws
		`{"kernel":"bfs.kernel2","trace":true,"trace_filter":"vgiw,lvc"} ` + "\n",
	} {
		f.Add([]byte(body))
	}
	for _, body := range removedJobKinds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := DecodeJobSpec(bytes.NewReader(body))
		if err != nil {
			if s != (JobSpec{}) {
				t.Fatalf("decode error %v left a spec: %+v", err, s)
			}
			return
		}
		raw := s
		if err := s.Normalize(); err != nil {
			if s != raw {
				t.Fatalf("rejected spec was changed: %+v, then %+v (%v)", raw, s, err)
			}
			if _, oerr := raw.Options(); oerr == nil {
				t.Fatalf("Options accepted a spec Normalize rejects: %+v", raw)
			}
			return
		}
		again := s
		if err := again.Normalize(); err != nil || again != s {
			t.Fatalf("Normalize is not idempotent: %+v, then %+v (%v)", s, again, err)
		}
		if again.Key() != s.Key() {
			t.Fatalf("key changed under re-normalization: %+v, then %+v", s.Key(), again.Key())
		}
		if _, err := raw.Options(); err != nil {
			t.Fatalf("Options rejected an accepted spec %+v: %v", raw, err)
		}
	})
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
