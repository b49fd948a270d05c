package leaktest

import (
	"strings"
	"testing"
	"time"
)

// recorder captures failures instead of failing the real test.
type recorder struct {
	testing.TB
	failed bool
	msg    string
}

func (r *recorder) Helper() {}
func (r *recorder) Error(args ...any) {
	r.failed = true
	for _, a := range args {
		if s, ok := a.(string); ok {
			r.msg += s
		}
	}
}

func TestCleanBodyPasses(t *testing.T) {
	r := &recorder{TB: t}
	done := Check(r)
	ch := make(chan struct{})
	go func() { close(ch) }()
	<-ch
	done()
	if r.failed {
		t.Fatalf("clean body reported a leak:\n%s", r.msg)
	}
}

func TestWindDownWithinGracePasses(t *testing.T) {
	r := &recorder{TB: t}
	done := Check(r)
	stop := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		<-stop
	}()
	// The goroutine is still parked when teardown begins; it exits only
	// after a delay, inside the grace window.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	done()
	<-exited
	if r.failed {
		t.Fatalf("goroutine exiting within grace reported as leak:\n%s", r.msg)
	}
}

func TestLeakIsCaught(t *testing.T) {
	r := &recorder{TB: t}
	done := Check(r)
	stop := make(chan struct{})
	go func() {
		<-stop // parked for the whole grace period: a leak
	}()
	start := time.Now()
	done()
	close(stop)
	if !r.failed {
		t.Fatal("leaked goroutine not reported")
	}
	if !strings.Contains(r.msg, "leaked goroutine") || !strings.Contains(r.msg, "leaktest.TestLeakIsCaught") {
		t.Fatalf("leak report missing the offending stack:\n%s", r.msg)
	}
	if elapsed := time.Since(start); elapsed < grace {
		t.Fatalf("teardown gave up after %v, before the %v grace elapsed", elapsed, grace)
	}
}

func TestBenignFilters(t *testing.T) {
	for _, stack := range []string{
		"goroutine 7 [syscall]:\nos/signal.signal_recv()\n",
		"goroutine 8 [IO wait]:\nnet/http.(*persistConn).readLoop(0xc000100000)\n",
		"goroutine 9 [select]:\nnet/http.(*persistConn).writeLoop(0xc000100000)\n",
		"goroutine 2 [force gc (idle)]:\nruntime.goparkunlock(...)\n\tcreated by runtime.init\n",
	} {
		if !benign(stack) {
			t.Errorf("stack not filtered as benign:\n%s", stack)
		}
	}
	if benign("goroutine 12 [chan receive]:\nvgiw/internal/server.(*Server).worker(0xc0001a2000)\n") {
		t.Error("application goroutine wrongly filtered as benign")
	}
}

func TestSnapshotSeesSelf(t *testing.T) {
	gs := snapshot()
	if len(gs) == 0 {
		t.Fatal("snapshot returned no goroutines")
	}
	found := false
	for _, g := range gs {
		if strings.Contains(g.stack, "leaktest.TestSnapshotSeesSelf") {
			found = true
			if !strings.HasPrefix(g.id, "goroutine ") {
				t.Errorf("malformed goroutine id %q", g.id)
			}
		}
	}
	if !found {
		t.Fatal("snapshot missing the current test goroutine")
	}
}
