package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/leaktest"
)

// newTestServer builds a server + httptest frontend and registers shutdown
// cleanup (idempotence is handled by ignoring the double-shutdown error).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // tests that care assert explicitly
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body, query string) (*http.Response, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeView(t, resp)
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("bad job response %q: %v", raw, err)
		}
	}
	return v
}

// waitState polls a job until it reaches the wanted state. It waits as long
// as the test binary may run (its -timeout deadline, less a margin to report
// the failure), or 60 s when there is no deadline: a traced scale-4 job under
// -race, sharing the CPUs with other packages' tests, can outlast any short
// fixed bound.
func waitState(t *testing.T, ts *httptest.Server, id, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	if d, ok := t.Deadline(); ok {
		deadline = d.Add(-5 * time.Second)
	}
	var last JobView
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		v := decodeView(t, resp)
		if v.State == want {
			return v
		}
		if terminal(v.State) {
			t.Fatalf("job %s reached %q (reason %q), want %q", id, v.State, v.Reason, want)
		}
		last = v
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q; its last state was %q", id, want, last.State)
	return JobView{}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func metricLine(name string, v int) string {
	return fmt.Sprintf("vgiw_metric{name=%q} %d", name, v)
}

// TestSingleflightDedup is the exactly-once acceptance test: N concurrent
// identical submissions share one execution and serve byte-identical result
// JSON. A slow blocker pins the single worker so the identical jobs are all
// admitted while their shared execution is still queued.
func TestSingleflightDedup(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	_, blocker := postJob(t, ts, `{"kernel":"hotspot.kernel","scale":4}`, "")
	waitState(t, ts, blocker.ID, StateRunning)

	const n = 8
	var wg sync.WaitGroup
	views := make([]JobView, n)
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, v := postJob(t, ts, `{"kernel":"bfs.kernel1"}`, "?wait=1")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("submission %d: status %d, want 200", i, resp.StatusCode)
			}
			views[i] = v
		}()
	}
	wg.Wait()
	waitState(t, ts, blocker.ID, StateDone)

	shared := 0
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("job %d: state %q (reason %q), want done", i, v.State, v.Reason)
		}
		if len(v.Result) == 0 {
			t.Fatalf("job %d: empty result", i)
		}
		if !bytes.Equal(v.Result, views[0].Result) {
			t.Fatalf("job %d result differs from job 0:\n%s\nvs\n%s", i, v.Result, views[0].Result)
		}
		if v.Shared {
			shared++
		}
	}
	if shared != n-1 {
		t.Errorf("shared jobs = %d, want %d", shared, n-1)
	}

	metrics := scrapeMetrics(t, ts)
	// Exactly two executions ran: the blocker and ONE for all n identical jobs.
	if want := metricLine("vgiwd/runs_executed", 2); !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q:\n%s", want, metrics)
	}
	if want := metricLine("vgiwd/jobs_deduped", n-1); !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestDeadlineCancelsSimulator submits a job whose deadline is far shorter
// than its simulation and asserts the job reports cancelled and the worker
// goroutine is released (Shutdown drains cleanly — under -race this also
// proves no simulator goroutine leaks past its deadline).
func TestDeadlineCancelsSimulator(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, v := postJob(t, ts, `{"kernel":"hotspot.kernel","scale":4,"timeout_ms":25}`, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if v.State != StateCancelled {
		t.Fatalf("state %q (reason %q), want cancelled", v.State, v.Reason)
	}
	if v.Reason != "deadline" {
		t.Errorf("reason %q, want deadline", v.Reason)
	}
	if len(v.Result) != 0 {
		t.Errorf("cancelled job carries a result")
	}

	// The worker must come free promptly once the simulator observes the
	// cancelled context: a fast follow-up job completes.
	_, next := postJob(t, ts, `{"kernel":"bfs.kernel1"}`, "?wait=1")
	if next.State != StateDone {
		t.Fatalf("follow-up job state %q, want done", next.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after deadline-cancel: %v", err)
	}
}

// TestOverloadRejects fills the bounded queue and asserts admission control:
// 429 with Retry-After, a rejection counter on /metrics, and no effect on
// the jobs already admitted.
func TestOverloadRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second})

	_, running := postJob(t, ts, `{"kernel":"hotspot.kernel","scale":4}`, "")
	waitState(t, ts, running.ID, StateRunning)
	resp2, queued := postJob(t, ts, `{"kernel":"bfs.kernel2","scale":8}`, "")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submission: status %d, want 202", resp2.StatusCode)
	}

	resp3, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kernel":"bfs.kernel1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body) //nolint:errcheck
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submission: status %d, want 429", resp3.StatusCode)
	}
	if got := resp3.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}

	metrics := scrapeMetrics(t, ts)
	if want := metricLine("vgiwd/jobs_rejected", 1); !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q:\n%s", want, metrics)
	}

	// The admitted jobs are unaffected: cancel them and drain. The queued
	// job goes first — it cannot start while the single worker is pinned by
	// the running one, so both DELETEs land on live jobs.
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := decodeView(t, resp); v.State != StateCancelled {
			t.Errorf("job %s after DELETE: state %q, want cancelled", id, v.State)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after cancellations: %v", err)
	}
	if !s.Draining() {
		t.Error("Draining() false after Shutdown")
	}
}

// TestGracefulDrain lets queued work finish during Shutdown and verifies
// post-drain submissions are refused with 503.
func TestGracefulDrain(t *testing.T) {
	// Drain is the server's lifecycle teardown; leaktest pins the exact
	// test if a worker or watchdog goroutine survives it (TestMain catches
	// the same suite-wide, but without naming the offender). Registered
	// before newTestServer so the LIFO cleanup order runs the leak check
	// after the server's own shutdown cleanup.
	t.Cleanup(leaktest.Check(t))
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	var admitted []JobView
	for i := 0; i < 3; i++ {
		_, v := postJob(t, ts, fmt.Sprintf(`{"kernel":"bfs.kernel1","scale":%d}`, i+1), "")
		admitted = append(admitted, v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	for _, v := range admitted {
		got := s.viewByID(t, v.ID)
		if got.State != StateDone {
			t.Errorf("job %s after drain: state %q (reason %q), want done", v.ID, got.State, got.Reason)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kernel":"bfs.kernel1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submission: status %d, want 503", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-drain readyz: status %d, want 503", resp.StatusCode)
		}
	}
}

// viewByID fetches a job view straight off the server (the HTTP layer is
// exercised elsewhere; drain assertions should not depend on the listener).
func (s *Server) viewByID(t *testing.T, id string) JobView {
	t.Helper()
	j, ok := s.Get(id)
	if !ok {
		t.Fatalf("job %s evicted", id)
	}
	return s.View(j)
}

// TestForcedDrainPreempts verifies an expired drain deadline force-cancels
// running simulations instead of hanging.
func TestForcedDrainPreempts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	_, v := postJob(t, ts, `{"kernel":"hotspot.kernel","scale":4}`, "")
	waitState(t, ts, v.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("forced drain returned nil, want deadline error")
	}
	// Workers still exited: Shutdown only returns once wg.Wait completes,
	// and the preempted simulation must have yielded quickly.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	if got := s.viewByID(t, v.ID); got.State != StateCancelled {
		t.Errorf("job after forced drain: state %q, want cancelled", got.State)
	}
}

// TestKernelResultCrosschecksHarness proves the daemon's result document is
// the one the harness produces in-process for the same spec: one job per
// registry kernel, which covers the whole registry through the daemon, and
// one on a non-default machine. Both sides are compared in
// JSONReport.Canonical() form, so only host telemetry may differ.
func TestKernelResultCrosschecksHarness(t *testing.T) {
	all := kernels.All()
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: len(all) + 1})

	specs := []bench.JobSpec{{Kernel: "bfs.kernel2", LVCKB: 16, Mem: "writethrough"}}
	for _, k := range all {
		specs = append(specs, bench.JobSpec{Kernel: k.Name})
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, v := postJob(t, ts, string(body), "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d, want 202", body, resp.StatusCode)
		}
		ids[i] = v.ID
	}

	// The harness side, fanned across the CPUs: the non-default machine's
	// kernel, then the registry at the default spec's options.
	opt, err := specs[0].Options()
	if err != nil {
		t.Fatal(err)
	}
	k, _ := kernels.ByName(specs[0].Kernel)
	first, err := bench.RunOne(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt, err = specs[1].Options(); err != nil {
		t.Fatal(err)
	}
	runs, err := bench.RunMatrix(all, opt)
	if err != nil {
		t.Fatal(err)
	}
	runs = append([]*bench.KernelRun{first}, runs...)

	for i, spec := range specs {
		v := waitState(t, ts, ids[i], StateDone)
		var got bench.JSONReport
		if err := json.Unmarshal(v.Result, &got); err != nil {
			t.Fatalf("%+v: daemon result is not a JSONReport: %v\n%s", spec, err, v.Result)
		}
		want := bench.BuildJSON(runs[i:i+1], 1)
		gb, _ := json.Marshal(got.Canonical())
		wb, _ := json.Marshal(want.Canonical())
		if !bytes.Equal(gb, wb) {
			t.Errorf("%+v: daemon result diverges from harness run:\ndaemon: %s\nharness: %s", spec, gb, wb)
		}
	}
}

// TestTraceEndpoint runs a traced job and fetches its Chrome trace.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, v := postJob(t, ts, `{"kernel":"bfs.kernel1","trace":true,"trace_filter":"vgiw,cvt"}`, "?wait=1")
	if resp.StatusCode != http.StatusOK || v.State != StateDone {
		t.Fatalf("status %d state %q, want 200/done", resp.StatusCode, v.State)
	}

	tr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", tr.StatusCode)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	// An untraced job must refuse the trace endpoint.
	_, plain := postJob(t, ts, `{"kernel":"bfs.kernel1"}`, "?wait=1")
	tr2, err := http.Get(ts.URL + "/v1/jobs/" + plain.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr2.Body.Close()
	if tr2.StatusCode != http.StatusConflict {
		t.Errorf("untraced job trace fetch: status %d, want 409", tr2.StatusCode)
	}
}

// TestBadSpecsRejected covers the 400 path. The job kinds the daemon no
// longer runs (suite, source and functional-only jobs) must fail to decode,
// so none can reach the store or the harness.
func TestBadSpecsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg apiError
		json.NewDecoder(resp.Body).Decode(&msg) //nolint:errcheck // a non-400 answer is the failure reported
		return resp.StatusCode, msg.Error
	}
	for _, body := range []string{
		`{`,
		`{}`,
		`{"kernel":"no.such.kernel"}`,
		`{"kernel":"bfs.kernel1","unknown_field":1}`,
		`{"kernel":"bfs.kernel1","suite":true}`,
		`{"kernel":"bfs.kernel1","trace_filter":"vgiw"}`,
		`{"kernel":"nn.euclid","lvc_kb":9007199254740992}`,
		`{"kernel":"nn.euclid","lvc_kb":1073741824}`,
		`{"kernel":"nn.euclid"}{"kernel":"ge.fan1"}`,
		`{"kernel":"nn.euclid"} trailing-garbage`,
	} {
		if code, msg := post(body); code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d (%q), want 400", body, code, msg)
		}
	}
	for _, body := range []string{
		`{"suite":true}`,
		`{"source":"kernel k params=0 shared=0\n@0 entry:\n  ret\n"}`,
		`{"kernel":"bfs.kernel1","fast":true}`,
	} {
		if code, msg := post(body); code != http.StatusBadRequest || !strings.HasPrefix(msg, "bad job spec") {
			t.Errorf("removed job kind %s: status %d (%q), want 400 bad job spec", body, code, msg)
		}
	}
}

// TestListAndNotFound covers GET /v1/jobs and 404s.
func TestListAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	_, v := postJob(t, ts, `{"kernel":"bfs.kernel1"}`, "?wait=1")

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Fatalf("list = %+v, want the one submitted job", list.Jobs)
	}
	if len(list.Jobs[0].Result) != 0 {
		t.Error("list view includes result payloads")
	}

	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// retainedIDs lists the job IDs GET /v1/jobs reports, in order.
func retainedIDs(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts, "/v1/jobs", &list)
	ids := make([]string, len(list.Jobs))
	for i, v := range list.Jobs {
		ids[i] = v.ID
	}
	return ids
}

// TestRetainedJobEviction pins the MaxJobs cap: the retained count holds at
// the cap, the oldest terminal jobs go first, queued and running jobs are
// never evicted even past the cap, and an evicted ID is gone from both
// GET /v1/jobs/{id} and GET /v1/jobs.
func TestRetainedJobEviction(t *testing.T) {
	dir := t.TempDir()
	const hitBody = `{"kernel":"bfs.kernel1"}`
	warm, tsWarm := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
	if resp, v := postJob(t, tsWarm, hitBody, "?wait=1"); resp.StatusCode != http.StatusOK || v.State != StateDone {
		t.Fatalf("warm-up: status %d state %q", resp.StatusCode, v.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := warm.Shutdown(ctx); err != nil { // flushes the store entry
		t.Fatalf("drain: %v", err)
	}

	const maxJobs = 3
	_, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4, MaxJobs: maxJobs})
	// Store hits are born done, so each one past the cap evicts the oldest.
	var hits []string
	for i := 0; i < 5; i++ {
		if _, v := postJob(t, ts, hitBody, ""); v.Cached != "store" {
			t.Fatalf("submission %d: cached %q, want a store hit", i, v.Cached)
		} else {
			hits = append(hits, v.ID)
		}
	}
	if got := retainedIDs(t, ts); !slices.Equal(got, hits[2:]) {
		t.Errorf("after %d hits at cap %d: retained %v, want the newest %v", len(hits), maxJobs, got, hits[2:])
	}

	// A running job and three queued behind it: each admission evicts one
	// remaining hit, and then the four live jobs stay, one past the cap.
	_, blocker := postJob(t, ts, `{"kernel":"hotspot.kernel","scale":4}`, "")
	waitState(t, ts, blocker.ID, StateRunning)
	live := []string{blocker.ID}
	for _, b := range []string{`{"kernel":"bfs.kernel2"}`, `{"kernel":"nn.euclid"}`, `{"kernel":"ge.fan1"}`} {
		resp, v := postJob(t, ts, b, "")
		if resp.StatusCode != http.StatusAccepted || v.State != StateQueued {
			t.Fatalf("%s behind the blocker: status %d state %q, want 202 queued", b, resp.StatusCode, v.State)
		}
		live = append(live, v.ID)
	}
	if got := retainedIDs(t, ts); !slices.Equal(got, live) {
		t.Errorf("with %d live jobs at cap %d: retained %v, want %v", len(live), maxJobs, got, live)
	}
	for _, id := range hits {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s: status %d, want 404", id, resp.StatusCode)
		}
	}

	// Cancelled, the live jobs are terminal; the next admission evicts the
	// two oldest of them to get back to the cap.
	for i := len(live) - 1; i >= 0; i-- { // queued first: the worker stays pinned
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+live[i], nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := decodeView(t, resp); v.State != StateCancelled {
			t.Fatalf("job %s after DELETE: state %q, want cancelled", live[i], v.State)
		}
	}
	_, last := postJob(t, ts, hitBody, "")
	if want := []string{live[2], live[3], last.ID}; !slices.Equal(retainedIDs(t, ts), want) {
		t.Errorf("after cancelling: retained %v, want %v", retainedIDs(t, ts), want)
	}
}
