package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"vgiw/internal/bench"
	"vgiw/internal/version"
)

// Handler builds the daemon's HTTP API on the Go 1.22 pattern mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/history", s.handleHistory)
	mux.HandleFunc("GET /v1/history/{key}", s.handleHistoryGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are sent; nothing left to report
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit admits a job. With ?wait=1 the response blocks until the job
// is terminal — and, symmetrically, a client that disconnects mid-wait
// cancels its job (a shared execution keeps running for its other holders).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := bench.DecodeJobSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if !s.Wait(r.Context(), j) {
			// Client gone (or the server-side write deadline fired): treat
			// like a hangup and release this job's claim on the execution.
			s.detach(j, "disconnect")
		}
	}
	status := http.StatusAccepted
	v := s.View(j)
	if terminal(v.State) {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, status, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := slices.Clone(s.order)
	s.mu.Unlock()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		v := s.View(j)
		v.Result = nil // list is a summary; fetch the job for its result
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

// handleGet reports one job. ?wait=1 blocks until terminal or the client
// hangs up; a read never cancels the job.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("wait") != "" {
		s.Wait(r.Context(), j)
	}
	writeJSON(w, http.StatusOK, s.View(j))
}

// handleTrace streams the job's cycle-level trace as Chrome trace-event
// JSON. The job must have been submitted with "trace": true and be done.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !j.Spec.Trace {
		writeError(w, http.StatusConflict, "job was not submitted with trace enabled")
		return
	}
	s.mu.Lock()
	state, _ := j.stateLocked()
	sink := j.exec.sink
	s.mu.Unlock()
	if !terminal(state) {
		writeError(w, http.StatusConflict, "job still %s; trace is available once it finishes", state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	sink.WriteChromeTrace(w) //nolint:errcheck // mid-stream failure means the client went away
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.detach(j, "cancelled")
	writeJSON(w, http.StatusOK, s.View(j))
}

// handleHealthz answers liveness with the model fingerprint, so a client
// can tell which generation of stored results this daemon serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Model  string `json:"model"`
	}{"ok", version.Model()})
}

// handleReadyz flips to 503 once drain begins, so load balancers stop
// routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w) //nolint:errcheck
}
