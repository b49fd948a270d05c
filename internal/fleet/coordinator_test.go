package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/leaktest"
	"vgiw/internal/server"
	"vgiw/internal/store"
)

// realWorker boots an in-process vgiwd core behind an httptest frontend —
// the same server the daemon serves, minus the TCP listener.
func realWorker(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.RunParallelism == 0 {
		cfg.RunParallelism = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // double-shutdown across cleanups is fine
	})
	return s, ts
}

// stubWorker fakes just enough of the vgiwd API for dispatch-path tests:
// /readyz and POST /v1/jobs answering instantly (after delay) with a done
// view. onJob observes each arrival.
func stubWorker(t testing.TB, delay time.Duration, onJob func(spec bench.JobSpec, tenant string)) *httptest.Server {
	var seq atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec bench.JobSpec
		json.NewDecoder(r.Body).Decode(&spec) //nolint:errcheck
		if onJob != nil {
			onJob(spec, r.Header.Get(server.TenantHeader))
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		json.NewEncoder(w).Encode(server.JobView{ //nolint:errcheck
			ID: fmt.Sprintf("job-%d", seq.Add(1)), State: server.StateDone,
			Spec: spec, Result: json.RawMessage(`{}`),
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestCoordinatorMergeByteIdentical is the tentpole contract: a matrix
// (with a duplicate spec) sharded across two real workers merges into a
// report byte-identical to a single-process run of the same matrix, with
// the duplicate deduped fleet-wide — executed once, reported per task.
func TestCoordinatorMergeByteIdentical(t *testing.T) {
	// The full dispatch path spawns slot and probe goroutines per worker;
	// leaktest pins this test if Run returns without reaping them
	// (TestMain catches the same suite-wide, without naming the offender).
	// Registered before realWorker so the LIFO cleanup order runs the leak
	// check after the workers' own shutdown cleanups.
	t.Cleanup(leaktest.Check(t))
	_, w1 := realWorker(t, server.Config{})
	_, w2 := realWorker(t, server.Config{})

	tasks := []Task{
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1"}},
		{Spec: bench.JobSpec{Kernel: "bfs.kernel2"}},
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1"}}, // duplicate key
	}
	c, err := NewCoordinator(Config{Workers: []string{w1.URL, w2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := c.Run(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.UniqueKeys != 2 {
		t.Fatalf("failed=%d uniqueKeys=%d, want 0/2", res.Failed, res.UniqueKeys)
	}
	if res.Tasks[2].Cached != "ledger" {
		t.Errorf("duplicate task cached = %q, want ledger", res.Tasks[2].Cached)
	}
	merged, err := res.MergedReport()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}

	// Single-process ground truth over the same matrix, duplicate included.
	var runs []*bench.KernelRun
	for _, task := range tasks {
		spec := task.Spec
		opt, err := spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		kspec, _ := kernels.ByName(spec.Kernel)
		kr, err := bench.RunOne(kspec, opt)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, kr)
	}
	wantJSON, err := json.Marshal(bench.BuildJSON(runs, 1).Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("fleet report differs from single-process report:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	reg := c.Metrics()
	if got := reg.Counter("fleet/jobs_total"); got != 3 {
		t.Errorf("jobs_total = %d, want 3", got)
	}
	if got := reg.Counter("fleet/jobs_deduped"); got != 1 {
		t.Errorf("jobs_deduped = %d, want 1", got)
	}
	// Exactly-once: real executions must equal unique keys.
	if got := reg.Counter("fleet/jobs_executed"); got != 2 {
		t.Errorf("jobs_executed = %d, want 2", got)
	}
	if got := reg.Counter("fleet/jobs_completed"); got != 2 {
		t.Errorf("jobs_completed = %d, want 2", got)
	}
}

// TestCoordinatorStoreShortCircuit pins the shared-store fast path: keys a
// previous sweep persisted are served from disk by the coordinator itself —
// zero dispatches — and the merged report is byte-identical to the first
// sweep's.
func TestCoordinatorStoreShortCircuit(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := realWorker(t, server.Config{Store: st})

	tasks := []Task{
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1"}},
		{Spec: bench.JobSpec{Kernel: "bfs.kernel2"}},
	}
	run := func(storeDir string) (*Result, *Coordinator) {
		t.Helper()
		c, err := NewCoordinator(Config{Workers: []string{w1.URL}, StoreDir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, err := c.Run(ctx, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return res, c
	}

	res1, _ := run("") // workers persist; coordinator not reading the store yet

	// The worker flushes to the store just after the wait=1 response is
	// released; wait for both entries before the second sweep reads them.
	for _, task := range tasks {
		spec := task.Spec
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		key := store.Key(spec)
		deadline := time.Now().Add(5 * time.Second)
		for {
			if ent, err := st.Get(key); err == nil && ent != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("store entry %s never appeared", key)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	res2, c2 := run(dir)

	rep1, err := res1.MergedReport()
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := res2.MergedReport()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(rep1)
	b2, _ := json.Marshal(rep2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("store-served report differs:\n%s\nvs\n%s", b2, b1)
	}
	reg := c2.Metrics()
	if got := reg.Counter("fleet/store_hits"); got != 2 {
		t.Errorf("store_hits = %d, want 2", got)
	}
	if got := reg.Counter("fleet/jobs_dispatched"); got != 0 {
		t.Errorf("jobs_dispatched = %d, want 0 (disk short-circuits dispatch)", got)
	}
	for _, tr := range res2.Tasks {
		if tr.Cached != "disk" {
			t.Errorf("task %d cached = %q, want disk", tr.Index, tr.Cached)
		}
	}
}

// TestCoordinatorDeadWorkerRequeue pins the failure model: a worker that is
// down from the start eats dispatches as transport errors, gets marked dead,
// and its jobs are requeued and completed by the healthy worker — within the
// retry budget, every key exactly once.
func TestCoordinatorDeadWorkerRequeue(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from the first dispatch

	_, alive := realWorker(t, server.Config{})

	c, err := NewCoordinator(Config{
		Workers:       []string{deadURL, alive.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeFailures: 1,
		RetryBudget:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1"}},
		{Spec: bench.JobSpec{Kernel: "bfs.kernel2"}},
		{Spec: bench.JobSpec{Kernel: "hotspot.kernel"}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := c.Run(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d: %+v", res.Failed, res.Tasks)
	}
	for _, tr := range res.Tasks {
		if tr.Worker != alive.URL {
			t.Errorf("task %d completed by %q, want the healthy worker", tr.Index, tr.Worker)
		}
	}
	reg := c.Metrics()
	if got := reg.Counter("fleet/worker_deaths"); got < 1 {
		t.Errorf("worker_deaths = %d, want >= 1", got)
	}
	if retried, requeued := reg.Counter("fleet/jobs_retried"), reg.Counter("fleet/jobs_requeued"); retried+requeued < 1 {
		t.Errorf("retried=%d requeued=%d, want at least one recovery", retried, requeued)
	}
	if got := reg.Counter("fleet/jobs_executed"); got != 3 {
		t.Errorf("jobs_executed = %d, want 3 (exactly once per key)", got)
	}
}

// TestCoordinatorTenantFairness pins round-robin admission under quota: with
// one serial worker and TenantQuota 1, tenant b's single job is served
// second, not behind tenant a's whole backlog.
func TestCoordinatorTenantFairness(t *testing.T) {
	var mu sync.Mutex
	var order []string
	ws := stubWorker(t, 0, func(spec bench.JobSpec, tenant string) {
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
	})

	c, err := NewCoordinator(Config{
		Workers:        []string{ws.URL},
		SlotsPerWorker: 1,
		TenantQuota:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1", Scale: 1}, Tenant: "a"},
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1", Scale: 2}, Tenant: "a"},
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1", Scale: 3}, Tenant: "a"},
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1", Scale: 4}, Tenant: "b"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Run(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 4 {
		t.Fatalf("order = %v, want 4 arrivals", order)
	}
	if order[0] != "a" || order[1] != "b" {
		t.Errorf("arrival order %v: tenant b should be served second under round-robin", order)
	}
}

// TestCoordinatorSteal pins work-stealing: a fast worker that drains its own
// queue steals from a slow one instead of idling.
func TestCoordinatorSteal(t *testing.T) {
	slow := stubWorker(t, 250*time.Millisecond, nil)
	var fastJobs atomic.Int64
	fast := stubWorker(t, time.Millisecond, func(bench.JobSpec, string) { fastJobs.Add(1) })

	c, err := NewCoordinator(Config{
		Workers:        []string{slow.URL, fast.URL},
		SlotsPerWorker: 1,
		QueuePerWorker: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks []Task
	for i := 1; i <= 6; i++ {
		tasks = append(tasks, Task{Spec: bench.JobSpec{Kernel: "bfs.kernel1", Scale: i}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Run(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
	if got := c.Metrics().Counter("fleet/jobs_stolen"); got < 1 {
		t.Errorf("jobs_stolen = %d, want >= 1", got)
	}
	if got := fastJobs.Load(); got < 4 {
		t.Errorf("fast worker handled %d/6 jobs; stealing should shift load its way", got)
	}
}

// TestCoordinatorPermanentFailure pins the no-retry path: specs that cannot
// succeed anywhere (invalid spec, failing source job) fail once, consume no
// retry budget, and surface in the Run error.
func TestCoordinatorPermanentFailure(t *testing.T) {
	_, w1 := realWorker(t, server.Config{})
	c, err := NewCoordinator(Config{Workers: []string{w1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		{Spec: bench.JobSpec{Kernel: "bfs.kernel1"}},
		{Spec: bench.JobSpec{Kernel: "no.such.kernel"}},   // rejected at normalize
		{Spec: bench.JobSpec{Source: "this is not kasm"}}, // fails on the worker
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := c.Run(ctx, tasks)
	if err == nil {
		t.Fatal("Run should report the permanent failures")
	}
	if res.Failed != 2 {
		t.Fatalf("failed = %d, want 2: %+v", res.Failed, res.Tasks)
	}
	if res.Tasks[0].State != "done" {
		t.Errorf("healthy task state = %q", res.Tasks[0].State)
	}
	if got := c.Metrics().Counter("fleet/jobs_retried"); got != 0 {
		t.Errorf("jobs_retried = %d, want 0 (permanent failures burn no budget)", got)
	}
	if _, err := res.MergedReport(); err == nil {
		t.Error("MergedReport should refuse a sweep with failures")
	}
}

// TestCoordinatorObservability pins the coordinator's own surface: fleet
// counters on /metrics in the standard exposition, and the combined history
// listing over the shared store.
func TestCoordinatorObservability(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := realWorker(t, server.Config{Store: st})

	c, err := NewCoordinator(Config{Workers: []string{w1.URL}, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Run(ctx, []Task{{Spec: bench.JobSpec{Kernel: "bfs.kernel1"}}}); err != nil {
		t.Fatal(err)
	}

	obs := httptest.NewServer(c.Handler())
	defer obs.Close()

	resp, err := http.Get(obs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m["fleet/jobs_completed"] != 1 || m["fleet/jobs_dispatched"] != 1 {
		t.Errorf("fleet metrics = %v", m)
	}
	if _, ok := m["fleet/tenant_pending/default"]; !ok {
		t.Error("per-tenant queue-depth gauge missing from exposition")
	}

	// The worker persisted its result to the shared dir; the flush lands
	// just after the job response, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(obs.URL + "/v1/history")
		if err != nil {
			t.Fatal(err)
		}
		var hist struct {
			Entries []server.HistoryEntry `json:"entries"`
		}
		err = json.NewDecoder(resp.Body).Decode(&hist)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(hist.Entries) == 1 && hist.Entries[0].Kernel == "bfs.kernel1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("combined history = %+v, want the swept kernel", hist.Entries)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkCoordinatorDispatch measures coordinator overhead per job —
// ledger, scheduling, HTTP round-trip to an instant stub worker — with the
// simulation cost removed.
func BenchmarkCoordinatorDispatch(b *testing.B) {
	ws := stubWorker(b, 0, nil)
	c, err := NewCoordinator(Config{
		Workers:        []string{ws.URL},
		SlotsPerWorker: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	var tasks []Task
	for i := 1; i <= 64; i++ {
		tasks = append(tasks, Task{Spec: bench.JobSpec{Kernel: "bfs.kernel1", Scale: i}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Run(context.Background(), tasks)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("failed = %d", res.Failed)
		}
	}
}
