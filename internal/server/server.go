package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/store"
	"vgiw/internal/trace"
)

// Config sizes the daemon's robustness core.
type Config struct {
	// QueueDepth bounds the number of executions admitted but not yet
	// finished being picked up. A full queue rejects submissions with 429 +
	// Retry-After rather than growing goroutines or memory without bound.
	// 0 = 64.
	QueueDepth int
	// Workers is the number of executions simulated concurrently. 0 = 2.
	Workers int
	// DefaultTimeout applies to jobs that set no timeout_ms; MaxTimeout
	// caps what a client may request. The deadline covers queue wait plus
	// execution. Defaults: 2m / 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the hint returned with 429 responses. 0 = 1s.
	RetryAfter time.Duration
	// MaxJobs caps retained job records; the oldest terminal jobs are
	// evicted first. 0 = 1024.
	MaxJobs int
	// Store is the persistent result store. Submissions are looked up here
	// before the server mutex and the singleflight path (a hit is served
	// without executing, marked `"cached": "store"`), and every successful
	// execution is flushed here on completion. nil = persistence disabled.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// Server is the simulation-as-a-service daemon core: a bounded job queue in
// front of a worker pool running the bench harness, with per-job deadlines,
// singleflight dedup on job content keys, and live metrics.
type Server struct {
	cfg   Config
	cache *bench.ArtifactCache
	store *store.Store // nil = persistence disabled

	// reg holds the server's own counters/histograms ("vgiwd/..."); simReg
	// accumulates the per-kernel metrics registries folded from completed
	// runs. Both are exposed on GET /metrics.
	reg    *trace.Registry
	simReg *trace.Registry

	baseCtx context.Context
	stop    context.CancelCauseFunc

	mu       sync.Mutex
	draining bool
	seq      uint64
	jobs     map[string]*Job
	order    []*Job                       // retained jobs in admission order, for listing + eviction
	byKey    map[bench.JobSpec]*execution // executions not yet filed in the store, by content key

	queue chan *execution
	wg    sync.WaitGroup
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   bench.NewArtifactCache(),
		store:   cfg.Store,
		reg:     trace.NewRegistry(),
		simReg:  trace.NewRegistry(),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		byKey:   make(map[bench.JobSpec]*execution),
		queue:   make(chan *execution, cfg.QueueDepth),
	}
	// Pre-touch the counters overload/drain tests assert on, so /metrics
	// exposes them as explicit zeros from the first scrape.
	for _, name := range []string{
		"vgiwd/jobs_admitted", "vgiwd/jobs_rejected", "vgiwd/jobs_deduped",
		"vgiwd/jobs_completed", "vgiwd/jobs_failed", "vgiwd/jobs_cancelled",
		"vgiwd/runs_executed", "vgiwd/queue_depth",
		"vgiwd/store_hits", "vgiwd/store_misses", "vgiwd/store_errors",
	} {
		s.reg.Add(name, 0)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// errQueueFull is returned by Submit when admission control rejects a job.
var errQueueFull = errors.New("server: queue full")

// errDraining is returned by Submit once Shutdown has begun.
var errDraining = errors.New("server: draining")

// Submit admits one job: it normalizes the spec, serves it from the
// persistent store when it can, dedups it against in-flight executions by
// content key, and otherwise enqueues a new execution — non-blocking, so a
// full queue rejects with errQueueFull (the HTTP layer's 429) instead of
// stalling the client or growing without bound.
func (s *Server) Submit(spec bench.JobSpec) (*Job, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	key := spec.Key()

	// The persistent store is read before the server mutex is taken, so a
	// hit's file read and decode delay only this submission. A hit is served
	// without queueing anything, byte-identical to the execution that
	// produced it (possibly in a previous process). Traced jobs always run —
	// a stored result carries no event sink to stream or export.
	useStore := s.store != nil && !spec.Trace
	var ent *store.Entry
	var getErr error
	if useStore {
		ent, getErr = s.store.Get(store.Key(key))
		if debugAfterStoreRead != nil {
			debugAfterStoreRead()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}

	e, shared := s.byKey[key]
	if useStore && ent == nil && !shared {
		// An equal execution may have filed its result and left byKey since
		// the read above: it leaves only once its store write has returned.
		// Under the lock no execution can leave unseen, so one more read
		// settles it; for a spec never run before it is one failed open.
		//vgiw:allow lock -- the miss-path re-check; a hit cannot reach it, and without it a repeat could run twice
		ent, getErr = s.store.Get(store.Key(key))
	}
	switch {
	case !useStore:
	case getErr != nil:
		// A corrupt entry must never wedge the job path: count it and run.
		s.reg.Add("vgiwd/store_errors", 1)
	case ent == nil:
		s.reg.Add("vgiwd/store_misses", 1)
	default:
		s.reg.Add("vgiwd/store_hits", 1)
		now := time.Now()
		e = &execution{
			spec:      key,
			fromStore: true,
			createdAt: now,
			finished:  now,
			result:    ent.Result,
			done:      make(chan struct{}),
		}
		close(e.done) // born terminal
		shared = false
	}

	if e == nil {
		ctx, cancel := context.WithCancelCause(s.baseCtx)
		e = &execution{
			spec:      key,
			ctx:       ctx,
			cancel:    cancel,
			createdAt: time.Now(),
			done:      make(chan struct{}),
		}
		if spec.Trace {
			mask, err := trace.ParseCats(spec.TraceFilter)
			if err != nil {
				cancel(err)
				return nil, err
			}
			e.sink = trace.NewSink(mask)
		}
		select {
		case s.queue <- e:
		default:
			cancel(errQueueFull)
			s.reg.Add("vgiwd/jobs_rejected", 1)
			return nil, errQueueFull
		}
		s.byKey[key] = e
	} else if shared {
		s.reg.Add("vgiwd/jobs_deduped", 1)
	}

	s.seq++
	j := &Job{
		ID:      fmt.Sprintf("j%06d", s.seq),
		Spec:    spec,
		Shared:  shared,
		created: time.Now(),
		exec:    e,
		done:    make(chan struct{}),
	}
	select {
	case <-e.done:
		// A store hit, or a finished execution whose store write is still in
		// flight: the job is born done, so it needs no deadline timer.
		s.reg.Add("vgiwd/jobs_completed", 1)
	default:
		e.refs++
		j.timer = time.AfterFunc(timeout, func() { s.detach(j, "deadline") })
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.evictLocked()
	s.reg.Add("vgiwd/jobs_admitted", 1)
	s.reg.Set("vgiwd/queue_depth", uint64(len(s.queue)))
	return j, nil
}

// debugAfterStoreRead, set by tests only, runs between Submit's store read
// and its taking the server mutex, holding that window open.
var debugAfterStoreRead func()

// Get looks a job up by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// detach removes one job from its execution: the job becomes terminal
// ("cancelled" with the given cause) and, when it was the execution's last
// attached job, the execution's context is cancelled so the simulator
// preempts. Safe to call multiple times; only the first wins.
func (s *Server) detach(j *Job, cause string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.detached {
		return
	}
	if state, _ := j.stateLocked(); terminal(state) {
		return // execution already finished; nothing to cancel
	}
	j.detached = true
	j.cause = cause
	if j.timer != nil { // store-hit jobs are born terminal and carry no timer
		j.timer.Stop()
	}
	close(j.done)
	j.exec.refs--
	if j.exec.refs == 0 {
		j.exec.cancel(fmt.Errorf("server: job %s", cause))
	}
	s.reg.Add("vgiwd/jobs_cancelled", 1)
}

// View renders a job's wire form. Terminal jobs include the result document.
func (s *Server) View(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	state, reason := j.stateLocked()
	v := JobView{
		ID:      j.ID,
		State:   state,
		Reason:  reason,
		Spec:    j.Spec,
		Shared:  j.Shared,
		Created: j.created,
	}
	e := j.exec
	if e.fromStore {
		v.Cached = "store"
	}
	if e.started {
		t := e.startedAt
		v.Started = &t
	}
	if state == StateDone {
		v.Result = json.RawMessage(e.result)
	}
	if terminal(state) && !e.finished.IsZero() {
		t := e.finished
		v.Ended = &t
	}
	return v
}

// Wait blocks until the job is terminal or ctx is done, and reports whether
// the job reached a terminal state.
func (s *Server) Wait(ctx context.Context, j *Job) bool {
	select {
	case <-j.exec.done:
		return true
	case <-j.done:
		return true
	case <-ctx.Done():
		// Lost race: terminal and ctx-done at once still counts.
		select {
		case <-j.exec.done:
			return true
		case <-j.done:
			return true
		default:
			return false
		}
	}
}

// evictLocked drops the oldest terminal jobs once the retained-record cap is
// exceeded. It scans from the oldest job and stops as soon as the excess is
// gone, so it costs the jobs it evicts plus the non-terminal jobs it steps
// over, never the whole retained set. Non-terminal jobs are never evicted
// (their count is bounded by the queue depth plus dedup attachments, which
// MaxJobs also caps overall growth of).
func (s *Server) evictLocked() {
	excess := len(s.order) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept, i := 0, 0 // order[:kept] collects the non-terminal jobs stepped over
	for ; i < len(s.order) && excess > 0; i++ {
		j := s.order[i]
		if state, _ := j.stateLocked(); terminal(state) {
			delete(s.jobs, j.ID)
			excess--
			continue
		}
		s.order[kept] = j
		kept++
	}
	// Slide the stepped-over jobs up against the unscanned rest and drop
	// the freed prefix.
	evicted := i - kept
	copy(s.order[evicted:i], s.order[:kept])
	clear(s.order[:evicted])
	s.order = s.order[evicted:]
}

// worker consumes executions until the queue closes (drain) and runs each
// one. Worker count — not submission rate — bounds simulation concurrency.
func (s *Server) worker() {
	defer s.wg.Done()
	for e := range s.queue {
		s.runExecution(e)
	}
}

// runExecution simulates one admitted execution and publishes its result.
func (s *Server) runExecution(e *execution) {
	s.mu.Lock()
	e.started = true
	e.startedAt = time.Now()
	s.reg.Set("vgiwd/queue_depth", uint64(len(s.queue)))
	s.mu.Unlock()
	s.reg.Observe("vgiwd/queue_wait_ms", e.startedAt.Sub(e.createdAt).Milliseconds())

	var result []byte
	var met *trace.Registry
	var stages bench.StageTimes
	err := e.ctx.Err() // a fully-detached or drain-killed queued job runs nothing
	if err != nil {
		err = context.Cause(e.ctx)
	} else {
		result, met, stages, err = s.execute(e)
	}

	s.mu.Lock()
	e.result, e.err = result, err
	e.finished = time.Now()
	if err != nil {
		delete(s.byKey, e.spec)
	}
	n := uint64(e.refs)
	switch {
	case err == nil:
		s.reg.Add("vgiwd/jobs_completed", n)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.reg.Add("vgiwd/jobs_cancelled", n)
	default:
		s.reg.Add("vgiwd/jobs_failed", n)
	}
	s.reg.Add("vgiwd/runs_executed", 1)
	close(e.done)
	s.mu.Unlock()
	s.reg.Observe("vgiwd/run_ms", e.finished.Sub(e.startedAt).Milliseconds())
	if err != nil {
		return
	}
	// A successful execution stays in byKey until its store write returns,
	// so an equal spec submitted meanwhile shares it instead of missing
	// both the store and the in-flight map.
	if debugBeforeFlush != nil {
		debugBeforeFlush()
	}
	s.flushToStore(e, met, stages)
	s.mu.Lock()
	delete(s.byKey, e.spec)
	s.mu.Unlock()
}

// debugBeforeFlush, set by tests only, runs after a successful execution
// is published and before its store write, holding that window open.
var debugBeforeFlush func()

// flushToStore files a successful execution's result in the persistent
// store, with a snapshot of the run's metrics and its host stage split.
// Failures are counted, not fatal: persistence is an add-on to the serving
// path, never a gate on it. Called after e.done is closed, so the result is
// stable.
func (s *Server) flushToStore(e *execution, met *trace.Registry, stages bench.StageTimes) {
	if s.store == nil {
		return
	}
	err := s.store.Put(&store.Entry{
		Spec: e.spec,
		Host: store.NewHostMeta(),
		StageMS: store.StageMS{
			Instance: float64(stages.Instance.Nanoseconds()) / 1e6,
			Compile:  float64(stages.Compile.Nanoseconds()) / 1e6,
			Place:    float64(stages.Place.Nanoseconds()) / 1e6,
			Simulate: float64(stages.Simulate.Nanoseconds()) / 1e6,
		},
		Result: e.result,
		Metrics: &trace.Snapshot{
			Schema:  trace.MetricsSchema,
			Scale:   e.spec.Scale,
			Metrics: met.Flat(),
		},
	})
	if err != nil {
		s.reg.Add("vgiwd/store_errors", 1)
	}
}

// execute runs the spec's kernel on every machine and marshals the result
// document. It also returns the run's simulated-metrics registry and host
// stage split, which runExecution files in the store, after folding both
// into the /metrics exposition and the per-stage latency histograms.
func (s *Server) execute(e *execution) ([]byte, *trace.Registry, bench.StageTimes, error) {
	opt, err := e.spec.Options()
	if err != nil {
		return nil, nil, bench.StageTimes{}, err
	}
	opt.Cache = s.cache
	opt.Trace = e.sink
	spec, _ := kernels.ByName(e.spec.Kernel) // Normalize checked the name
	kr, err := bench.RunOneCtx(e.ctx, spec, opt)
	if err != nil {
		return nil, nil, bench.StageTimes{}, err
	}
	runs := []*bench.KernelRun{kr}
	met := bench.CollectMetrics(runs)
	s.simReg.Merge(met)
	s.reg.Observe("vgiwd/stage_instance_ms", kr.Stages.Instance.Milliseconds())
	s.reg.Observe("vgiwd/stage_compile_ms", kr.Stages.Compile.Milliseconds())
	s.reg.Observe("vgiwd/stage_place_ms", kr.Stages.Place.Milliseconds())
	s.reg.Observe("vgiwd/stage_simulate_ms", kr.Stages.Simulate.Milliseconds())
	b, err := json.Marshal(bench.BuildJSON(runs, opt.Scale))
	return b, met, kr.Stages, err
}

// SnapshotRegistry merges the server's own counters, the shared artifact
// cache's per-tier accounting (vgiwd/cache_hits/<tier> and
// vgiwd/cache_misses/<tier>, zero until the first lookup) and the
// accumulated simulation metrics into one registry — the same view /metrics
// exposes, reusable for the shutdown snapshot the daemon persists to the
// store.
func (s *Server) SnapshotRegistry() *trace.Registry {
	merged := trace.NewRegistry()
	merged.Merge(s.reg)
	cs := s.cache.Stats()
	for t := range cs.Hits {
		tier := bench.Tier(t).String()
		merged.Set("vgiwd/cache_hits/"+tier, cs.Hits[t])
		merged.Set("vgiwd/cache_misses/"+tier, cs.Misses[t])
	}
	merged.Merge(s.simReg)
	return merged
}

// WriteMetrics renders the merged server + simulation registries as
// Prometheus text exposition.
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.SnapshotRegistry().WritePrometheus(w)
}

// Draining reports whether Shutdown has begun (readyz turns 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: stop admitting, let workers finish the queued
// and in-flight executions, and — if ctx expires first — cancel the base
// context so every running simulation preempts at its next ctx poll, then
// wait for the workers to exit. It returns nil on a clean drain and
// ctx.Err() when the drain had to force-cancel.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	// Submissions check draining under this same mutex before sending, so
	// closing the queue here cannot race a send.
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stop(fmt.Errorf("server: drain timeout: %w", context.Cause(ctx)))
		// The simulators poll their contexts every few thousand cycles, so
		// this second wait is bounded by host milliseconds, not sim time.
		<-done
		return ctx.Err()
	}
}
