package server

// Tests for the persistence-and-observation tier: the result store behind
// Submit, the /v1/history API, and the /v1/jobs/{id}/trace export.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/store"
	"vgiw/internal/trace"
	"vgiw/internal/version"
)

func newStoreServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	return newTestServer(t, cfg)
}

// metricValue scrapes one counter's current value out of the exposition.
func metricValue(t *testing.T, ts *httptest.Server, name string) int {
	t.Helper()
	re := regexp.MustCompile(`vgiw_metric\{name="` + regexp.QuoteMeta(name) + `"\} (\d+)`)
	m := re.FindStringSubmatch(scrapeMetrics(t, ts))
	if m == nil {
		return 0
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStoreRoundTrip is the persistence acceptance test: a result computed
// by one server is served byte-identically by a second server sharing the
// store directory — the restart scenario — marked "cached": "store", counted
// in store_hits, and visible through the history API.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := `{"kernel":"bfs.kernel1","scale":2}`

	sA, tsA := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
	respA, vA := postJob(t, tsA, spec, "?wait=1")
	if respA.StatusCode != http.StatusOK || vA.State != StateDone {
		t.Fatalf("first run: status %d state %q", respA.StatusCode, vA.State)
	}
	if vA.Cached != "" {
		t.Fatalf("first run claims cached=%q", vA.Cached)
	}
	// Drain server A: its worker flushes the store entry before exiting, so
	// the directory now holds everything a new process can see.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sA.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	_, tsB := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
	respB, vB := postJob(t, tsB, spec, "?wait=1")
	if respB.StatusCode != http.StatusOK || vB.State != StateDone {
		t.Fatalf("store hit: status %d state %q", respB.StatusCode, vB.State)
	}
	if vB.Cached != "store" {
		t.Errorf(`store hit not marked: cached = %q, want "store"`, vB.Cached)
	}
	if !bytes.Equal(vB.Result, vA.Result) {
		t.Errorf("store hit is not byte-identical:\n%s\nvs\n%s", vB.Result, vA.Result)
	}
	if got := metricValue(t, tsB, "vgiwd/store_hits"); got != 1 {
		t.Errorf("store_hits = %d, want 1", got)
	}
	if got := metricValue(t, tsB, "vgiwd/runs_executed"); got != 0 {
		t.Errorf("runs_executed = %d on a pure store hit, want 0", got)
	}

	// The stored result is listed (and filterable) in /v1/history.
	var hist struct {
		Entries []HistoryEntry `json:"entries"`
	}
	getJSON(t, tsB, "/v1/history?kernel=bfs.kernel1", &hist)
	if len(hist.Entries) != 1 {
		t.Fatalf("history entries = %d, want 1", len(hist.Entries))
	}
	he := hist.Entries[0]
	if he.Kernel != "bfs.kernel1" || he.Metrics == 0 {
		t.Errorf("history entry = %+v", he)
	}
	getJSON(t, tsB, "/v1/history?kernel=nonexistent", &hist)
	if len(hist.Entries) != 0 {
		t.Errorf("kernel filter leaked %d entries", len(hist.Entries))
	}

	// Full entry fetch serves the stored result verbatim.
	var full store.Entry
	getJSON(t, tsB, "/v1/history/"+he.Key, &full)
	if full.Key != he.Key || full.Metrics == nil || full.Metrics.Schema != trace.MetricsSchema {
		t.Errorf("full entry = key %q, metrics %+v", full.Key, full.Metrics)
	}
}

// TestRequestHeadersNeverCreateMetricNames pins that clients cannot grow
// the daemon's registry: the metric names are fixed by the code, so a
// thousand store hits, each carrying a different X-VGIW-Tenant header, add
// no name to it.
func TestRequestHeadersNeverCreateMetricNames(t *testing.T) {
	dir := t.TempDir()
	body := `{"kernel":"bfs.kernel1"}`
	warm, tsWarm := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
	if resp, v := postJob(t, tsWarm, body, "?wait=1"); resp.StatusCode != http.StatusOK || v.State != StateDone {
		t.Fatalf("warm-up: status %d state %q", resp.StatusCode, v.State)
	}
	// Draining flushes the result to the store, so every submission to the
	// second server below is a store hit.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := warm.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
	names := len(s.reg.Flat())
	hits := s.reg.Flat()["vgiwd/store_hits"]
	const n = 1000
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-VGIW-Tenant", fmt.Sprintf("tenant-%04d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := decodeView(t, resp); resp.StatusCode != http.StatusOK || v.Cached != "store" {
			t.Fatalf("submission %d: status %d cached %q, want a 200 store hit", i, resp.StatusCode, v.Cached)
		}
	}
	if got := s.reg.Flat()["vgiwd/store_hits"] - hits; got != n {
		t.Errorf("store_hits grew by %d, want %d", got, n)
	}
	if got := len(s.reg.Flat()); got != names {
		t.Errorf("%d store hits took the registry from %d to %d metric names", n, names, got)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// TestHistoryWithoutStore pins the disabled-persistence behavior: the routes
// exist but answer 404.
func TestHistoryWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, path := range []string{"/v1/history", "/v1/history/abc", "/v1/history/diff?from=a&to=b"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without a store: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHistoryRejectsMalformedKeys pins that the history routes never turn a
// client's key into a path outside the store: a key store.Key cannot
// produce answers 400, whether or not a file of that name exists beside
// the store directory, and nothing of such a file reaches the reply. The
// retired /v1/history/diff URLs now reach /v1/history/{key} with the key
// "diff", which is malformed too.
func TestHistoryRejectsMalformedKeys(t *testing.T) {
	parent := t.TempDir()
	if err := os.WriteFile(filepath.Join(parent, "secret.json"), []byte(`{"schema":"outside-the-store"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newStoreServer(t, filepath.Join(parent, "store"), Config{Workers: 1, QueueDepth: 4})
	valid := store.Key(bench.JobSpec{Kernel: "bfs.kernel1", Scale: 1})
	for _, path := range []string{
		"/v1/history/..%2Fsecret",
		"/v1/history/..%2Fmissing",
		"/v1/history/" + strings.ToUpper(valid),
		"/v1/history/diff?from=..%2Fsecret&to=" + valid,
		"/v1/history/diff?from=..%2Fmissing&to=..%2Fsecret",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (%s)", path, resp.StatusCode, body)
		}
		if strings.Contains(body, "outside-the-store") {
			t.Errorf("GET %s echoed a file outside the store: %s", path, body)
		}
	}
}

// waitFiled waits until no execution is left in byKey: every one has
// returned from its store write.
func waitFiled(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.byKey)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d executions never left byKey", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreFaults drives the daemon over a damaged store: a fault costs a
// re-execution and a store_errors count, never a failed job or a panic.
func TestStoreFaults(t *testing.T) {
	const body = `{"kernel":"bfs.kernel1"}`
	spec := bench.JobSpec{Kernel: "bfs.kernel1"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	key := store.Key(spec)

	// A truncated entry at the spec's key is an error, not a hit: the job
	// runs, and the run's write replaces the entry, so the next submission
	// is a store hit serving the same bytes.
	t.Run("truncated entry", func(t *testing.T) {
		dir := t.TempDir()
		gen := filepath.Join(dir, version.Model())
		if err := os.Mkdir(gen, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(gen, key+".json"), []byte(`{"schema":"vgiw-store/v1","key":"`), 0o644); err != nil {
			t.Fatal(err)
		}
		s, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
		resp, run := postJob(t, ts, body, "?wait=1")
		if resp.StatusCode != http.StatusOK || run.State != StateDone || run.Cached != "" || run.Shared {
			t.Fatalf("over a truncated entry: status %d state %q cached %q shared %v, want an uncached 200 done",
				resp.StatusCode, run.State, run.Cached, run.Shared)
		}
		waitFiled(t, s)
		_, hit := postJob(t, ts, body, "?wait=1")
		if hit.Cached != "store" || !bytes.Equal(hit.Result, run.Result) {
			t.Errorf("after the rewrite: cached %q, same bytes %v; want a store hit with the run's bytes",
				hit.Cached, bytes.Equal(hit.Result, run.Result))
		}
		for name, want := range map[string]int{
			"vgiwd/store_errors": 1, "vgiwd/runs_executed": 1, "vgiwd/store_hits": 1,
		} {
			if got := metricValue(t, ts, name); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	})

	// A store directory removed under a running daemon: reads miss, every
	// write fails and is counted, and the jobs still complete.
	t.Run("store directory removed", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "store")
		s, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		bodies := []string{body, `{"kernel":"bfs.kernel2"}`, body}
		for _, b := range bodies {
			if resp, v := postJob(t, ts, b, "?wait=1"); resp.StatusCode != http.StatusOK || v.State != StateDone {
				t.Fatalf("%s without a store directory: status %d state %q (%s)", b, resp.StatusCode, v.State, v.Reason)
			}
			waitFiled(t, s)
		}
		for name, want := range map[string]int{
			"vgiwd/store_errors": len(bodies), "vgiwd/runs_executed": len(bodies), "vgiwd/store_hits": 0,
		} {
			if got := metricValue(t, ts, name); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	})

	// A write killed between its temp file and its rename leaves a .tmp-*
	// orphan, here holding a complete entry for the key beside a torn one.
	// Neither is visible to Get (the job runs) or to List (the history
	// holds only the run's own entry, nothing skipped), and neither stops
	// the run's write of the same key.
	t.Run("orphaned temp files", func(t *testing.T) {
		donor, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := donor.Put(&store.Entry{Spec: spec, Result: json.RawMessage(`{"orphan":true}`)}); err != nil {
			t.Fatal(err)
		}
		full, err := os.ReadFile(filepath.Join(donor.Dir(), version.Model(), key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		gen := filepath.Join(dir, version.Model())
		if err := os.Mkdir(gen, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{".tmp-1234567890": full, ".tmp-0987654321": full[:len(full)/2]} {
			if err := os.WriteFile(filepath.Join(gen, name), data, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		s, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
		_, run := postJob(t, ts, body, "?wait=1")
		if run.State != StateDone || run.Cached != "" {
			t.Fatalf("beside orphans: state %q cached %q, want an executed job", run.State, run.Cached)
		}
		waitFiled(t, s)
		_, hit := postJob(t, ts, body, "?wait=1")
		if hit.Cached != "store" || !bytes.Equal(hit.Result, run.Result) {
			t.Errorf("after the write: cached %q, same bytes %v; want a store hit with the run's bytes",
				hit.Cached, bytes.Equal(hit.Result, run.Result))
		}
		var hist struct {
			Entries []HistoryEntry `json:"entries"`
			Skipped string         `json:"skipped"`
		}
		getJSON(t, ts, "/v1/history", &hist)
		if len(hist.Entries) != 1 || hist.Entries[0].Key != key || hist.Skipped != "" {
			t.Errorf("history beside orphans = %+v, want the one entry at %s and nothing skipped", hist, key)
		}
		if got := metricValue(t, ts, "vgiwd/store_errors"); got != 0 {
			t.Errorf("store_errors = %d, want 0", got)
		}
	})
}

// TestHistoryListsCurrentGeneration runs a job, then files its store entry
// under another model fingerprint, as a build with another model would have
// left it, and again in the layout from before fingerprints. A daemon of the
// running model lists neither, does not serve either, runs the job again,
// and then lists its own entry alone; the other generations stay untouched.
func TestHistoryListsCurrentGeneration(t *testing.T) {
	const body = `{"kernel":"bfs.kernel1"}`
	dir := t.TempDir()
	sA, tsA := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
	if _, v := postJob(t, tsA, body, "?wait=1"); v.State != StateDone {
		t.Fatalf("first run: state %q", v.State)
	}
	waitFiled(t, sA)
	var hist struct {
		Entries []HistoryEntry `json:"entries"`
		Skipped string         `json:"skipped"`
	}
	getJSON(t, tsA, "/v1/history", &hist)
	if len(hist.Entries) != 1 || hist.Entries[0].Host.Model != version.Model() {
		t.Fatalf("history after the run = %+v, want one entry of model %s", hist, version.Model())
	}
	key := hist.Entries[0].Key
	gen := filepath.Join(dir, version.Model())
	entry, err := os.ReadFile(filepath.Join(gen, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	older := filepath.Join(dir, "0000000000000000")
	if err := os.Rename(gen, older); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), entry, 0o644); err != nil {
		t.Fatal(err)
	}

	sB, tsB := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 4})
	getJSON(t, tsB, "/v1/history", &hist)
	if len(hist.Entries) != 0 || hist.Skipped != "" {
		t.Errorf("history over other generations = %+v, want none and nothing skipped", hist)
	}
	if resp, err := http.Get(tsB.URL + "/v1/history/" + key); err != nil {
		t.Fatal(err)
	} else if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/history/{key} of another generation: status %d, want 404", resp.StatusCode)
	}
	if _, v := postJob(t, tsB, body, "?wait=1"); v.State != StateDone || v.Cached != "" {
		t.Errorf("rerun over other generations: state %q cached %q, want an executed job", v.State, v.Cached)
	}
	waitFiled(t, sB)
	getJSON(t, tsB, "/v1/history", &hist)
	if len(hist.Entries) != 1 || hist.Entries[0].Key != key || hist.Entries[0].Host.Model != version.Model() {
		t.Errorf("history after the rerun = %+v, want the rerun's entry alone", hist)
	}
	if kept, err := os.ReadFile(filepath.Join(older, key+".json")); err != nil || !bytes.Equal(kept, entry) {
		t.Errorf("the other generation's entry changed: %v", err)
	}
}

// TestHealthzReportsModel pins /healthz: 200, with the model fingerprint.
func TestHealthzReportsModel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Status, Model string }
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || got.Status != "ok" || got.Model != version.Model() {
		t.Errorf("/healthz = %d %+v (%v), want 200 ok with model %s", resp.StatusCode, got, err, version.Model())
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestTraceEndpointContract completes the trace handler's coverage: unknown
// job 404, in-flight traced job 409, and a happy path whose payload passes
// the full Chrome trace-event validator. The export is the one way to read a
// trace: the retired /events stream answers 404 for the same finished job.
func TestTraceEndpointContract(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp.StatusCode)
	}

	// A traced job that is still running must refuse (the sink is live).
	_, slow := postJob(t, ts, `{"kernel":"hotspot.kernel","scale":4,"trace":true}`, "")
	waitState(t, ts, slow.ID, StateRunning)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + slow.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("running job trace: status %d, want 409", resp.StatusCode)
	}
	waitState(t, ts, slow.ID, StateDone)

	resp, err = http.Get(ts.URL + "/v1/jobs/" + slow.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", resp.StatusCode)
	}
	n, err := trace.ValidateChromeTrace([]byte(body))
	if err != nil {
		t.Fatalf("trace failed validation: %v", err)
	}
	if n == 0 {
		t.Error("validated trace has no events")
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + slow.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("traced job events: status %d, want 404", resp.StatusCode)
	}
}

// TestRepeatDuringStoreFlushIsShared holds open the window between an
// execution's completion and its store write. An equal spec submitted there
// attaches to the finished execution — shared, born done, with no deadline
// timer — instead of executing again, and is served the same bytes.
func TestRepeatDuringStoreFlushIsShared(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	debugBeforeFlush = func() {
		enterOnce.Do(func() { close(entered) })
		<-release
	}
	t.Cleanup(func() { debugBeforeFlush = nil }) // runs after the server's shutdown
	s, ts := newStoreServer(t, t.TempDir(), Config{Workers: 2, QueueDepth: 4})
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })

	spec := `{"kernel":"bfs.kernel1"}`
	_, first := postJob(t, ts, spec, "")
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("the first execution never reached its store flush")
	}
	resp, repeat := postJob(t, ts, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK || repeat.State != StateDone {
		t.Fatalf("repeat: status %d state %q", resp.StatusCode, repeat.State)
	}
	if !repeat.Shared || repeat.Cached != "" {
		t.Errorf("repeat: shared %v cached %q, want shared with the finished execution", repeat.Shared, repeat.Cached)
	}
	s.mu.Lock()
	timer := s.jobs[repeat.ID].timer
	s.mu.Unlock()
	if timer != nil {
		t.Error("a job born done started a deadline timer")
	}
	releaseOnce.Do(func() { close(release) })

	done := waitState(t, ts, first.ID, StateDone)
	if !bytes.Equal(repeat.Result, done.Result) {
		t.Errorf("repeat is not byte-identical:\n%s\nvs\n%s", repeat.Result, done.Result)
	}
	for name, want := range map[string]int{
		"vgiwd/runs_executed": 1, "vgiwd/jobs_completed": 2, "vgiwd/jobs_deduped": 1,
	} {
		if got := metricValue(t, ts, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestRepeatAfterOffLockMissIsNotRerun holds a repeat between its store
// read, which missed, and its taking the server mutex, while the equal
// execution files its result and leaves byKey. The repeat must then be
// served that execution's bytes, not run the spec a second time.
func TestRepeatAfterOffLockMissIsNotRerun(t *testing.T) {
	flushing, flush := make(chan struct{}), make(chan struct{})
	var flushingOnce, flushOnce sync.Once
	debugBeforeFlush = func() {
		flushingOnce.Do(func() { close(flushing) })
		<-flush
	}
	missed, admit := make(chan struct{}), make(chan struct{})
	var reads atomic.Int32
	var admitOnce sync.Once
	debugAfterStoreRead = func() {
		if reads.Add(1) == 2 { // the repeat; the first submission passes
			close(missed)
			<-admit
		}
	}
	t.Cleanup(func() { debugBeforeFlush, debugAfterStoreRead = nil, nil }) // runs after the server's shutdown
	s, _ := newStoreServer(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() {
		flushOnce.Do(func() { close(flush) })
		admitOnce.Do(func() { close(admit) })
	})

	spec := bench.JobSpec{Kernel: "bfs.kernel1"}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-flushing:
	case <-time.After(60 * time.Second):
		t.Fatal("the first execution never reached its store write")
	}
	repeat := make(chan *Job, 1)
	go func() {
		j, err := s.Submit(spec)
		if err != nil {
			t.Error(err)
		}
		repeat <- j
	}()
	<-missed // the repeat's read ran before the write: a miss
	flushOnce.Do(func() { close(flush) })
	waitFiled(t, s)
	admitOnce.Do(func() { close(admit) })

	j := <-repeat
	if j == nil {
		t.FailNow()
	}
	if !s.Wait(context.Background(), j) {
		t.Fatal("the repeat never finished")
	}
	got, want := s.View(j), s.View(first)
	if got.State != StateDone || (got.Cached != "store" && !got.Shared) {
		t.Errorf("repeat: state %q cached %q shared %v, want done from the store or shared", got.State, got.Cached, got.Shared)
	}
	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("repeat is not byte-identical:\n%s\nvs\n%s", got.Result, want.Result)
	}
	if n := s.reg.Flat()["vgiwd/runs_executed"]; n != 1 {
		t.Errorf("runs_executed = %d, want 1", n)
	}
}

// TestCacheTierMetrics pins the shared artifact cache's exposition: one
// hits and one misses counter per tier, present as zeros from the first
// scrape, and no other tier. An LVC sweep over the registry on one daemon
// then simulates each kernel's baselines once, since no VGIW knob is in
// their result-tier keys, and simulates VGIW once per distinct effective
// machine: the 105 jobs are 34 machines.
func TestCacheTierMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 128})
	tiers := []string{"workload", "vgiw", "simt_run", "sgmf_run", "vgiw_run"}
	metrics := scrapeMetrics(t, ts)
	for _, tier := range tiers {
		for _, name := range []string{"vgiwd/cache_hits/" + tier, "vgiwd/cache_misses/" + tier} {
			if want := metricLine(name, 0); !strings.Contains(metrics, want) {
				t.Errorf("fresh daemon's metrics missing %q", want)
			}
		}
	}
	if got := strings.Count(metrics, `{name="vgiwd/cache_hits/`); got != len(tiers) {
		t.Errorf("fresh daemon exposes %d cache tiers, want %d", got, len(tiers))
	}

	sizes := []int{16, 32, 64, 128, 256}
	names := kernels.Names()
	var jobs []*Job
	for _, name := range names {
		for _, kb := range sizes {
			j, err := s.Submit(bench.JobSpec{Kernel: name, LVCKB: kb})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	for _, j := range jobs {
		if !s.Wait(context.Background(), j) {
			t.Fatalf("job %s never finished", j.ID)
		}
		if v := s.View(j); v.State != StateDone {
			t.Fatalf("job %s (%s): state %q (%s)", j.ID, j.Spec.Kernel, v.State, v.Reason)
		}
	}
	sgmfKernels := 0
	for _, spec := range kernels.All() {
		if spec.SGMF {
			sgmfKernels++
		}
	}
	for name, want := range map[string]int{
		"vgiwd/cache_misses/simt_run": len(names),
		"vgiwd/cache_hits/simt_run":   len(names) * (len(sizes) - 1),
		"vgiwd/cache_misses/sgmf_run": sgmfKernels,
		"vgiwd/cache_hits/sgmf_run":   sgmfKernels * (len(sizes) - 1),
		"vgiwd/cache_misses/vgiw_run": 34,
		"vgiwd/cache_hits/vgiw_run":   71,
		"vgiwd/runs_executed":         len(names) * len(sizes),
	} {
		if got := metricValue(t, ts, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
