package bench

import (
	"context"
	"errors"
	"testing"

	"vgiw/internal/kernels"
)

// TestRunOneCtxCancelled verifies an already-cancelled context preempts a run
// before (or during) simulation and surfaces context.Canceled.
func TestRunOneCtxCancelled(t *testing.T) {
	spec, ok := kernels.ByName("bfs.kernel1")
	if !ok {
		t.Fatal("bfs.kernel1 not registered")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunOneCtx(ctx, spec, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunOneCtx err = %v, want context.Canceled", err)
	}
}

// TestRunOneCtxDeadline verifies a deadline that expires mid-simulation
// preempts the cycle loops (the run is far longer than the deadline).
func TestRunOneCtxDeadline(t *testing.T) {
	spec, ok := kernels.ByName("hotspot.kernel")
	if !ok {
		t.Fatal("hotspot.kernel not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	_, err := RunOneCtx(ctx, spec, DefaultOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunOneCtx err = %v, want context.DeadlineExceeded", err)
	}
}
