// Package server turns the experiment harness into a simulation service:
// an HTTP/JSON job API with a bounded queue, admission control, per-job
// deadlines, singleflight result dedup, live Prometheus metrics, and
// graceful drain. It is the shape of an inference-serving frontend —
// queue, backpressure, deadlines, drain — grafted onto the simulators.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/trace"
)

// execution is one simulation actually running (or queued to run). Several
// jobs whose specs share a content key attach to one execution — the
// singleflight dedup — and all serve its byte-identical result. An execution
// is cancelled only when every attached job has detached (or the server
// force-drains).
type execution struct {
	spec bench.JobSpec // normalized; TimeoutMS stripped (it is per job)

	ctx    context.Context
	cancel context.CancelCauseFunc

	// sink captures the run's cycle-level trace when spec.Trace is set;
	// GET /v1/jobs/{id}/trace exports it once the run is done.
	sink *trace.Sink

	// fromStore marks an execution that never ran: its result was served
	// from the persistent result store (surfaced as `"cached": "store"`).
	fromStore bool

	// Guarded by the server mutex.
	refs      int  // attached (non-detached, non-terminal) jobs
	started   bool // a worker has picked this execution up
	startedAt time.Time
	createdAt time.Time

	// Written by the worker before done is closed; reading after <-done is
	// race-free (channel close is a happens-before edge).
	result   []byte // final result JSON (nil on error)
	err      error
	finished time.Time

	done chan struct{}
}

// Job is one client submission: a spec, a deadline, and a reference to the
// (possibly shared) execution computing its result.
type Job struct {
	ID      string
	Spec    bench.JobSpec // as submitted (normalized, deadline included)
	Shared  bool          // attached to an execution another job started
	created time.Time

	exec *execution

	// Guarded by the server mutex.
	detached bool   // cancelled independently of the execution
	cause    string // why it detached: "cancelled", "deadline", "disconnect"
	timer    *time.Timer

	// done closes when the job detaches; waiters select on it alongside
	// exec.done.
	done chan struct{}
}

// Job states reported by the API.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// stateLocked resolves the job's current state and (for terminal states) the
// reason. Caller holds the server mutex.
func (j *Job) stateLocked() (state, reason string) {
	if j.detached {
		return StateCancelled, j.cause
	}
	e := j.exec
	select {
	case <-e.done:
		switch {
		case e.err == nil:
			return StateDone, ""
		case errors.Is(e.err, context.Canceled), errors.Is(e.err, context.DeadlineExceeded):
			return StateCancelled, e.err.Error()
		default:
			return StateFailed, e.err.Error()
		}
	default:
	}
	if e.started {
		return StateRunning, ""
	}
	return StateQueued, ""
}

// terminal reports whether state is one clients can stop polling on.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobView is the wire form of a job's status.
type JobView struct {
	ID      string        `json:"id"`
	State   string        `json:"state"`
	Reason  string        `json:"reason,omitempty"`
	Spec    bench.JobSpec `json:"spec"`
	Shared  bool          `json:"shared,omitempty"` // deduped onto an in-flight execution
	Created time.Time     `json:"created"`
	Started *time.Time    `json:"started,omitempty"`
	Ended   *time.Time    `json:"ended,omitempty"`

	// Cached is "store" when the result was served from the persistent
	// result store instead of a fresh execution (byte-identical either way).
	Cached string `json:"cached,omitempty"`

	// Result is the job's result document once State is "done": the
	// bench.JSONReport of its kernel's run. Byte-identical across every job
	// that shared the execution.
	Result json.RawMessage `json:"result,omitempty"`
}
