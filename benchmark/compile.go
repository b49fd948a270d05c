package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"vgiw/internal/kernels"
)

// referenceShapes is the compile workload's set-up: one registry pass with
// every verifier on, recording the shape of each kernel's artifacts.
func referenceShapes() (map[string]shape, error) {
	opt := options()
	opt.VGIW.Checked = true
	opt.SGMF.Checked = true
	ref := map[string]shape{}
	for _, spec := range kernels.All() {
		a, err := buildArtifacts(nil, spec, opt)
		if err != nil {
			return nil, err
		}
		ref[spec.Name] = a.shape()
	}
	return ref, nil
}

// compilePass builds the artifacts of every kernel, in an order drawn from
// rng, and checks each kernel's shape against the reference. It returns the
// artifacts for the per-layer counts.
func compilePass(t *tracer, rng *rand.Rand, ref map[string]shape) ([]*artifacts, error) {
	opt := options()
	specs := kernels.All()
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	arts := make([]*artifacts, 0, len(specs))
	for _, spec := range specs {
		a, err := buildArtifacts(t, spec, opt)
		if err != nil {
			return nil, err
		}
		if got, want := a.shape(), ref[spec.Name]; got != want {
			return nil, fmt.Errorf("%s: artifact shape %+v, verified pass built %+v", spec.Name, got, want)
		}
		arts = append(arts, a)
	}
	return arts, nil
}

func timeCompile(cfg config) (*outcome, error) {
	ref, err := referenceShapes()
	if err != nil {
		return nil, err
	}
	su := func() (time.Duration, func(), error) {
		t0 := time.Now()
		_, err := referenceShapes()
		return time.Since(t0), nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0))
	return timedRun(cfg, su, 1, true, func(int) error {
		_, err := compilePass(nil, rng, ref)
		return err
	}), nil
}

// traceCompile alternates untraced and traced passes.
func traceCompile(cfg config) (*outcome, error) {
	ref, err := referenceShapes()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0))
	passes := 50
	if cfg.quick {
		passes = 2
	} else if _, err := compilePass(nil, rng, ref); err != nil { // warm-up
		return nil, err
	}
	rec := newRecorder()
	var arts []*artifacts
	untraced, traced, scale, err := pairs(rec, "compile.pass", passes,
		func() error { _, err := compilePass(nil, rng, ref); return err },
		func(t *tracer) (err error) { arts, err = compilePass(t, rng, ref); return err })
	if err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(cfg.work, "spans-compile.json")); err != nil {
		return nil, err
	}
	o := &outcome{attempted: 2 * passes, metrics: map[string]float64{},
		bypassed: []string{"core", "mem", "simt", "sgmf", "server", "http", "store"}, timeScale: scale}
	reconcile(o.metrics, rec, "compile.pass", untraced, traced)
	compileCounts(o.metrics, arts)
	return o, nil
}
