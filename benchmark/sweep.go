package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
)

// sweepKB are the LVC capacities of the design-space sweep the repository
// documents: EXPERIMENTS.md "Sweeping the design space over the API", and
// vgiw-experiments -lvc-sweep.
var sweepKB = []int{16, 32, 64, 128, 256}

// sweepMatrix is one LVC-capacity sweep over the registry at scale 1: every
// kernel at every documented capacity, each spec once, in an order drawn
// from rng.
func sweepMatrix(rng *rand.Rand) []bench.JobSpec {
	var specs []bench.JobSpec
	for _, name := range kernels.Names() {
		for _, kb := range sweepKB {
			specs = append(specs, bench.JobSpec{Kernel: name, Scale: 1, LVCKB: kb})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// quickSweep is the number of jobs a sweep holds under -quick.
const quickSweep = 6

// runSweep submits every spec once to d from vgiwdClients closed-loop
// clients, as vgiwctl does with its default two slots per worker, and checks
// each reply. Every spec is new to the daemon, so a reply served from the
// store or shared with another job is a failure. When replies is not nil,
// the i-th job's reply is stored in it.
func runSweep(d *daemon, specs []bench.JobSpec, res *results, replies []reply) error {
	ls := closedLoop(vgiwdClients, 0, budget{ops: len(specs)}, func(i int) error {
		start := time.Now()
		v, err := d.submit(specs[i])
		if replies != nil {
			replies[i] = reply{start, time.Now(), v}
		}
		if err != nil {
			return err
		}
		if v.Cached != "" || v.Shared {
			return fmt.Errorf("%s (lvc %d KB): reply was not executed (cached %q, shared %v)",
				specs[i].Kernel, specs[i].LVCKB, v.Cached, v.Shared)
		}
		return res.check(specs[i], v)
	})
	if ls.failed > 0 {
		return fmt.Errorf("%d of %d sweep jobs failed", ls.failed, len(specs))
	}
	return nil
}

// freshSweep boots a daemon with an empty store and runs one sweep on it,
// in an order drawn from rng. The caller stops the daemon. When record is
// set, the replies are returned.
func freshSweep(cfg config, rng *rand.Rand, res *results, record bool) (*daemon, []reply, error) {
	specs := sweepMatrix(rng)
	if cfg.quick {
		specs = specs[:quickSweep]
	}
	d, err := startDaemon(cfg.work)
	if err != nil {
		return nil, nil, err
	}
	var replies []reply
	if record {
		replies = make([]reply, len(specs))
	}
	return d, replies, runSweep(d, specs, res, replies)
}

// timeSweep's op is what a user pays for one sweep script against a freshly
// started vgiwd: boot, sweep, drain.
func timeSweep(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 2))
	res := newResults()
	return timedRun(cfg, daemonSetup(cfg.work), 1, true, func(int) error {
		d, _, err := freshSweep(cfg, rng, res, false)
		if d != nil {
			d.stop()
		}
		return err
	}), nil
}

// traceSweeps is the traced run's length: ten sweeps hold 1050 executions,
// enough to give server.run_ms_p99 ten samples beyond it.
const traceSweeps = 10

// traceSweep runs traceSweeps sweeps, each on its own daemon, times the
// server layers from the jobs' timestamps as traceVgiwd does, and replays the
// last sweep's store entries into a fresh store.
func traceSweep(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 2))
	res := newResults()
	sweeps := traceSweeps
	if cfg.quick {
		sweeps = 1
	}
	cal := newCalibration()
	rec := newRecorder()
	var replies []reply
	var factors []float64
	var d *daemon // the current sweep's daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < sweeps; i++ {
		if d != nil {
			d.stop()
		}
		var got []reply
		var err error
		if d, got, err = freshSweep(cfg, rng, res, true); err != nil {
			return nil, err
		}
		replies = append(replies, got...)
		factors = append(factors, cal.factor())
	}
	o, err := daemonOutcome(cfg, rec, replies, median(factors))
	if err != nil {
		return nil, err
	}
	return o, replayStore(o.metrics, d, cfg.work)
}
