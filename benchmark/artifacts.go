package main

import (
	"fmt"

	"vgiw/internal/bench"
	"vgiw/internal/compile"
	"vgiw/internal/core"
	"vgiw/internal/kernels"
	"vgiw/internal/sgmf"
)

// scale is the workload scale of the suite and compile workloads: the scale
// BENCH_trace.json was recorded at.
const scale = 2

// options returns the paper's machines at the benchmark scale, run serially
// so that a workload measures the simulators and not the host scheduler.
func options() bench.Options {
	opt := bench.DefaultOptions()
	opt.Scale = scale
	opt.Parallelism = 1
	return opt
}

// artifacts is everything one kernel needs before it can run on the three
// machines: the same products bench.RunOneCtx builds or takes from its cache.
type artifacts struct {
	w      *kernels.Workload
	vgiw   *core.Prepared
	simt   *compile.CompiledKernel
	mapped *sgmf.Mapped // nil unless the kernel is SGMF-mappable
}

// buildArtifacts builds one kernel's workload and compiles and places it for
// every machine, one public call per span. opt.VGIW.Checked turns the
// verifiers on for all three compiles.
func buildArtifacts(t *tracer, spec kernels.Spec, opt bench.Options) (*artifacts, error) {
	a := &artifacts{}
	err := t.do("kernels.build", func() (err error) {
		a.w, err = kernels.NewWorkload(spec, opt.Scale)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.Name, err)
	}

	mv, err := core.NewMachine(opt.VGIW)
	if err != nil {
		return nil, err
	}
	var ck *compile.CompiledKernel
	if err := t.do("compile.vgiw", func() (err error) { ck, err = mv.Compile(a.w.Kernel()); return err }); err != nil {
		return nil, fmt.Errorf("%s: vgiw compile: %w", spec.Name, err)
	}
	if err := t.do("fabric.place", func() (err error) { a.vgiw, err = mv.Prepare(ck); return err }); err != nil {
		return nil, fmt.Errorf("%s: vgiw place: %w", spec.Name, err)
	}

	var copts []compile.Option
	if opt.VGIW.Checked {
		copts = append(copts, compile.Checked())
	}
	if err := t.do("compile.simt", func() (err error) { a.simt, err = compile.Compile(a.w.Kernel(), copts...); return err }); err != nil {
		return nil, fmt.Errorf("%s: simt compile: %w", spec.Name, err)
	}

	if !spec.SGMF || opt.SkipSGMF {
		return a, nil
	}
	mg, err := sgmf.NewMachine(opt.SGMF)
	if err != nil {
		return nil, err
	}
	k := a.w.Kernel()
	var g *compile.BlockDFG
	if err := t.do("compile.sgmf", func() (err error) { g, err = mg.Translate(k); return err }); err != nil {
		return nil, fmt.Errorf("%s: sgmf translate: %w", spec.Name, err)
	}
	a.mapped = &sgmf.Mapped{Kernel: k}
	if err := t.do("fabric.sgmf_place", func() (err error) { a.mapped.Placement, err = mg.PlaceGraph(k.Name, g); return err }); err != nil {
		return nil, fmt.Errorf("%s: sgmf place: %w", spec.Name, err)
	}
	return a, nil
}

// shape is the part of a kernel's artifacts that the compile workload
// checks against the verified set-up pass.
type shape struct {
	Blocks, DFGNodes, Replicas int // VGIW: fabric-fitted blocks, their graph nodes, replicas placed
	SIMTBlocks, SIMTNodes      int
	SGMFNodes, SGMFReplicas    int // zero when the kernel is not SGMF-mappable
}

func (a *artifacts) shape() shape {
	var s shape
	s.Blocks = len(a.vgiw.CK.Kernel.Blocks)
	for i, g := range a.vgiw.CK.DFGs {
		s.DFGNodes += len(g.Nodes)
		s.Replicas += a.vgiw.Replicas[i]
	}
	s.SIMTBlocks = len(a.simt.Kernel.Blocks)
	for _, g := range a.simt.DFGs {
		s.SIMTNodes += len(g.Nodes)
	}
	if a.mapped != nil {
		s.SGMFNodes = len(a.mapped.Placement.Graph.Nodes)
		s.SGMFReplicas = a.mapped.Placement.Replicas
	}
	return s
}
