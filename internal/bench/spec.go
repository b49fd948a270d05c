package bench

import (
	"fmt"

	"vgiw/internal/kernels"
	"vgiw/internal/mem"
)

// JobSpec is the wire-level description of one harness job — the request
// body the vgiwd daemon accepts and the serving-side twin of Options. It
// covers the design-space knobs a config-sweep client varies (scale, LVC
// capacity, CVT budget, L1 write policy, ablations) without exposing the
// host-side tuning in Options (parallelism, cache handles, sinks), which the
// server owns.
//
// The zero value means "the paper's default machine on the full registry at
// scale 1". Normalize fills defaults and validates; after Normalize, equal
// JobSpec values describe identical simulations, so the normalized spec is
// the job-level content key the daemon's singleflight dedup uses (the same
// content-keying idea the ArtifactCache applies per artifact).
type JobSpec struct {
	// Kernel is a registry name ("bfs.kernel1"). Empty with Suite unset is
	// rejected; mutually exclusive with Suite and Source.
	Kernel string `json:"kernel,omitempty"`
	// Suite runs the full benchmark registry.
	Suite bool `json:"suite,omitempty"`
	// Source is kasm kernel-assembly text. A source job runs the compiler
	// pipeline (parse, fabric-fitted compile, place) and reports the
	// per-block placement summary; it has no workload, so nothing is
	// simulated.
	Source string `json:"source,omitempty"`

	// Scale is the workload scale factor (0 = 1).
	Scale int `json:"scale,omitempty"`
	// SkipSGMF disables the SGMF runs.
	SkipSGMF bool `json:"skip_sgmf,omitempty"`
	// LVCKB overrides the live-value cache capacity, in KiB (0 = default 64;
	// at most 65536).
	LVCKB int `json:"lvc_kb,omitempty"`
	// CVTBits overrides the control vector table bit budget (0 = default 2^16).
	CVTBits int `json:"cvt_bits,omitempty"`
	// Mem selects the VGIW L1 write policy: "", "writeback", "writethrough".
	Mem string `json:"mem,omitempty"`
	// ReplicationOff forces one replica per block (ablation).
	ReplicationOff bool `json:"replication_off,omitempty"`
	// Trace captures a cycle-level trace during the run, served from the
	// daemon's GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
	// TraceFilter is the comma-separated category filter for Trace
	// (vgiw,cvt,lvc,simt,sgmf,engine,mem; empty = all).
	TraceFilter string `json:"trace_filter,omitempty"`
	// Fast runs both simulators' engines in functional-only mode
	// (engine.Options.Fast): identical results and operation counts, no
	// cycle-level accounting — for result validation and functional sweeps
	// where timing is irrelevant.
	Fast bool `json:"fast,omitempty"`
	// TimeoutMS caps the job's execution time in milliseconds (0 = the
	// server's default deadline).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Verify runs the kernel-IR verifier after every compiler pass and the
	// placed-graph checker after placement (internal/verify). It changes
	// timings, never results, but is part of the content key: a verified
	// artifact attests more than an unverified one.
	Verify bool `json:"verify,omitempty"`
}

// maxLVCKB caps JobSpec.LVCKB at 1024× the paper's 64 KB LVC. Every
// documented sweep uses 16–256 KiB; the cap keeps the byte size (LVCKB<<10)
// from overflowing and a job from asking the cache model for billions of
// lines.
const maxLVCKB = 65536

// Normalize validates the spec and fills defaults in place, so that equal
// normalized specs describe identical simulations.
func (s *JobSpec) Normalize() error {
	modes := 0
	if s.Kernel != "" {
		modes++
	}
	if s.Suite {
		modes++
	}
	if s.Source != "" {
		modes++
	}
	if modes == 0 {
		return fmt.Errorf("spec: one of kernel, suite, or source is required")
	}
	if modes > 1 {
		return fmt.Errorf("spec: kernel, suite, and source are mutually exclusive")
	}
	if s.Kernel != "" {
		if _, ok := kernels.ByName(s.Kernel); !ok {
			return fmt.Errorf("spec: unknown kernel %q", s.Kernel)
		}
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Scale < 1 || s.Scale > 64 {
		return fmt.Errorf("spec: scale %d out of range [1,64]", s.Scale)
	}
	if s.LVCKB < 0 || s.CVTBits < 0 {
		return fmt.Errorf("spec: negative LVC/CVT capacity")
	}
	if s.LVCKB > maxLVCKB {
		return fmt.Errorf("spec: lvc_kb %d out of range [0,%d]", s.LVCKB, maxLVCKB)
	}
	switch s.Mem {
	case "", "writeback", "writethrough":
	default:
		return fmt.Errorf("spec: unknown mem policy %q (want writeback or writethrough)", s.Mem)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("spec: negative timeout_ms")
	}
	if !s.Trace && s.TraceFilter != "" {
		return fmt.Errorf("spec: trace_filter set without trace")
	}
	return nil
}

// Options maps the normalized spec onto harness options: the paper's default
// machines with the spec's design-space overrides applied. Host-side fields
// (Parallelism, Cache, Trace sink) are left at their zero values for the
// caller — the daemon, which owns those resources — to fill in.
func (s *JobSpec) Options() (Options, error) {
	if err := s.Normalize(); err != nil {
		return Options{}, err
	}
	opt := DefaultOptions()
	opt.Scale = s.Scale
	opt.SkipSGMF = s.SkipSGMF
	opt.Parallelism = 0
	if s.LVCKB > 0 {
		opt.VGIW.LVC.SizeBytes = s.LVCKB << 10
	}
	if s.CVTBits > 0 {
		opt.VGIW.CVTCapacityBits = s.CVTBits
	}
	if s.Mem == "writethrough" {
		opt.VGIW.Mem.L1.Policy = mem.WriteThrough
	}
	opt.VGIW.ReplicationOff = s.ReplicationOff
	opt.VGIW.Checked = s.Verify
	opt.SGMF.Checked = s.Verify
	opt.VGIW.Engine.Fast = s.Fast
	opt.SGMF.Engine.Fast = s.Fast
	return opt, nil
}

// Specs resolves the kernel set the job runs: the named kernel or the full
// registry. Source jobs return nil (nothing is simulated).
func (s *JobSpec) Specs() []kernels.Spec {
	switch {
	case s.Suite:
		return kernels.All()
	case s.Kernel != "":
		if spec, ok := kernels.ByName(s.Kernel); ok {
			return []kernels.Spec{spec}
		}
	}
	return nil
}

// Key is the job-level content key: two jobs with equal keys are guaranteed
// to produce byte-identical results, so an in-flight job with the same key
// can be shared instead of re-executed (singleflight). The key is the
// normalized spec minus TimeoutMS — a deadline changes when a job is allowed
// to fail, never what it computes.
func (s JobSpec) Key() JobSpec {
	s.TimeoutMS = 0
	return s
}
