// Package leaktest detects goroutines that outlive the code under test.
// It is a stdlib-only snapshot-and-diff over runtime.Stack: record the
// live goroutines before the test body, then at teardown re-snapshot
// (with a grace period, since legitimate goroutines need a moment to wind
// down after cancel/close) and fail if any new, non-benign goroutine is
// still running. The golife static pass (internal/analysis) proves every
// `go` statement is tied to a cancel mechanism; this helper proves the
// mechanism actually fires.
//
// Per-test use — register the check BEFORE anything that tears down via
// t.Cleanup, so the LIFO cleanup order runs it after those teardowns
// (a plain defer fires before cleanups and would flag still-draining
// servers):
//
//	func TestServer(t *testing.T) {
//		t.Cleanup(leaktest.Check(t))
//		...
//	}
//
// Whole-suite use (wired into internal/server):
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long teardown keeps re-snapshotting before declaring a
// goroutine leaked. Wound-down goroutines (HTTP conns draining, workers
// observing a closed channel) usually exit within a few milliseconds; the
// retry loop polls with backoff so clean tests pay almost nothing.
const grace = 2 * time.Second

// goroutine is one parsed stack from runtime.Stack output.
type goroutine struct {
	id    string // the "goroutine N" header token; stable for a goroutine's lifetime
	stack string // full stack text, used for filtering and reporting
}

// snapshot parses an all-goroutine dump into per-goroutine records.
func snapshot() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var gs []goroutine
	for _, chunk := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(chunk, "\n")
		if !strings.HasPrefix(header, "goroutine ") {
			continue
		}
		id := strings.Join(strings.Fields(header)[:2], " ")
		gs = append(gs, goroutine{id: id, stack: chunk})
	}
	return gs
}

// benign reports stacks that are never leaks: runtime and test-harness
// machinery, plus stdlib goroutines with process lifetime (signal
// handling, DNS resolution in flight, keep-alive HTTP transport conns —
// the transport parks those for reuse and reaps them on its own timer,
// so a retained conn after a client request is pooling, not a leak).
func benign(stack string) bool {
	for _, marker := range []string{
		"created by runtime.",
		"runtime.ReadTrace",
		"testing.Main(",
		"testing.tRunner(",
		"testing.(*T).Run(",
		"testing.(*T).Parallel(",
		"testing.runFuzzing(",
		"testing.runTests(",
		"os/signal.signal_recv",
		"os/signal.loop",
		"net.(*Resolver)",
		"net/http.(*persistConn).readLoop",
		"net/http.(*persistConn).writeLoop",
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}

// leaked diffs a teardown snapshot against the set of goroutine ids that
// existed at setup.
func leaked(before map[string]bool) []goroutine {
	var out []goroutine
	for _, g := range snapshot() {
		if !before[g.id] && !benign(g.stack) {
			out = append(out, g)
		}
	}
	return out
}

// await polls until no leaked goroutines remain or the grace period runs
// out, returning the final leak set.
func await(before map[string]bool) []goroutine {
	deadline := time.Now().Add(grace)
	delay := time.Millisecond
	for {
		gs := leaked(before)
		if len(gs) == 0 || time.Now().After(deadline) {
			return gs
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

func report(gs []goroutine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d leaked goroutine(s) after %v grace:\n", len(gs), grace)
	for _, g := range gs {
		b.WriteString(g.stack)
		b.WriteString("\n\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// Check snapshots the live goroutines and returns the teardown func;
// defer it at the top of a test to require that the test leaves no new
// goroutines behind.
func Check(t testing.TB) func() {
	t.Helper()
	before := make(map[string]bool)
	for _, g := range snapshot() {
		before[g.id] = true
	}
	return func() {
		t.Helper()
		if gs := await(before); len(gs) > 0 {
			t.Error(report(gs))
		}
	}
}

// Main wraps testing.M for a package-level gate: every goroutine started
// anywhere in the suite must be gone once the last test finishes. It
// os.Exits with the suite's status, or 1 when the suite passed but leaked.
func Main(m *testing.M) {
	before := make(map[string]bool)
	for _, g := range snapshot() {
		before[g.id] = true
	}
	code := m.Run()
	if gs := await(before); len(gs) > 0 {
		fmt.Fprintln(os.Stderr, "leaktest:", report(gs))
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
