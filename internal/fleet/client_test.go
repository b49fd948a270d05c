package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/server"
)

// TestSubmitRetries429 pins the client's overload handling: 429 responses
// are retried in place (honoring Retry-After), the tenant header rides every
// attempt, and the eventual 2xx is decoded into a JobView.
func TestSubmitRetries429(t *testing.T) {
	var attempts atomic.Int64
	var tenants atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(server.TenantHeader) == "sweep-a" {
			tenants.Add(1)
		}
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`)) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(server.JobView{ID: "j1", State: server.StateDone}) //nolint:errcheck
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, Tenant: "sweep-a", Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}}
	v, err := c.Submit(context.Background(), bench.JobSpec{Kernel: "bfs.kernel1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j1" || v.State != server.StateDone {
		t.Errorf("view = %+v", v)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (two 429s then success)", got)
	}
	if got := tenants.Load(); got != 3 {
		t.Errorf("tenant header on %d/3 attempts", got)
	}
}

// TestSubmit429RespectsContext pins that a permanently-overloaded worker
// cannot hold Submit past its context deadline.
func TestSubmit429RespectsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := &Client{Base: ts.URL}
	_, err := c.Submit(ctx, bench.JobSpec{Kernel: "bfs.kernel1"}, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context deadline", err)
	}
}

// TestDecodeAPIError pins that non-2xx responses surface the server's error
// envelope as *APIError, and that Permanent classifies statuses correctly.
func TestDecodeAPIError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"spec: unknown kernel \"nope\""}`)) //nolint:errcheck
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	_, err := c.Submit(context.Background(), bench.JobSpec{Kernel: "nope"}, false)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusBadRequest || !strings.Contains(ae.Msg, "unknown kernel") {
		t.Errorf("APIError = %+v", ae)
	}
	if !Permanent(err) {
		t.Error("400 should be permanent")
	}
	for status, perm := range map[int]bool{
		400: true, 404: true, 408: false, 429: false, 500: false, 503: false,
	} {
		if got := Permanent(&APIError{Status: status}); got != perm {
			t.Errorf("Permanent(%d) = %v, want %v", status, got, perm)
		}
	}
	if Permanent(errors.New("connection refused")) {
		t.Error("transport errors are never permanent")
	}
}

// TestBackoffDelay pins the deterministic schedule: exponential growth from
// Base capped at Max, with a longer Retry-After hint replacing the computed
// delay (still capped).
func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	for _, c := range []struct {
		attempt int
		hint    time.Duration
		want    time.Duration
	}{
		{0, 0, 100 * time.Millisecond},
		{1, 0, 200 * time.Millisecond},
		{3, 0, 800 * time.Millisecond},
		{4, 0, time.Second},                                 // capped
		{10, 0, time.Second},                                // stays capped, no overflow
		{0, 500 * time.Millisecond, 500 * time.Millisecond}, // hint longer: honored
		{3, 500 * time.Millisecond, 800 * time.Millisecond}, // hint shorter: schedule wins
		{0, time.Minute, time.Second},                       // hint beyond cap: capped
	} {
		if got := b.Delay(c.attempt, c.hint); got != c.want {
			t.Errorf("Delay(%d, %v) = %v, want %v", c.attempt, c.hint, got, c.want)
		}
	}
	// Jitter keeps the delay non-negative and near the base value.
	jb := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := jb.Delay(0, 0)
		if d < 0 || d > 20*time.Millisecond {
			t.Fatalf("jittered delay %v out of range", d)
		}
	}
}

// TestParseMetrics pins the exposition scrape: vgiw_metric samples parse,
// histogram lines and malformed values are skipped.
func TestParseMetrics(t *testing.T) {
	const exp = `# HELP vgiw_metric simulation counters
# TYPE vgiw_metric gauge
vgiw_metric{name="vgiwd/jobs_admitted"} 12
vgiw_metric{name="vgiwd/runs_executed"} 7
vgiw_hist_sum{name="vgiwd/job_ms"} 17.5
vgiw_metric{name="broken"} notanumber
`
	m, err := ParseMetrics(strings.NewReader(exp))
	if err != nil {
		t.Fatal(err)
	}
	if m["vgiwd/jobs_admitted"] != 12 || m["vgiwd/runs_executed"] != 7 {
		t.Errorf("parsed = %v", m)
	}
	if _, ok := m["broken"]; ok {
		t.Error("malformed sample should be skipped")
	}
	if len(m) != 2 {
		t.Errorf("got %d samples, want 2: %v", len(m), m)
	}
}
