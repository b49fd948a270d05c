package server

// The history API reads the persistent result store back out over HTTP:
// GET /v1/history lists stored entries (filterable) and GET
// /v1/history/{key} returns one full entry. An entry's "metrics" object is a
// vgiw-metrics/v1 snapshot, so two of them compare offline with
// cmd/benchgate (-baseline a.json -current b.json).

import (
	"errors"
	"net/http"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/store"
)

// HistoryEntry is the list-level summary of one stored result (the full
// entry, result document included, is at /v1/history/{key}).
type HistoryEntry struct {
	Key     string         `json:"key"`
	Kind    string         `json:"kind"`
	Kernel  string         `json:"kernel,omitempty"`
	Spec    bench.JobSpec  `json:"spec"`
	Created time.Time      `json:"created"`
	Host    store.HostMeta `json:"host"`
	Metrics int            `json:"metrics,omitempty"` // metric count in the snapshot
}

// storeOr404 fetches the server's store, answering 404 when persistence is
// disabled (the routes exist; the resource does not).
func (s *Server) storeOr404(w http.ResponseWriter) (*store.Store, bool) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "result store disabled; start vgiwd with -store-dir")
		return nil, false
	}
	return s.store, true
}

// handleHistory lists stored results in stable (created, key) order.
// Filters: ?kernel= (exact kernel name), ?kind= (kernel|suite|source),
// ?key= (exact spec content key).
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	st, ok := s.storeOr404(w)
	if !ok {
		return
	}
	entries, lerr := st.List()
	q := r.URL.Query()
	kernel, kind, key := q.Get("kernel"), q.Get("kind"), q.Get("key")
	out := make([]HistoryEntry, 0, len(entries))
	for _, e := range entries {
		if kernel != "" && e.Spec.Kernel != kernel {
			continue
		}
		if kind != "" && e.Kind != kind {
			continue
		}
		if key != "" && e.Key != key {
			continue
		}
		h := HistoryEntry{
			Key:     e.Key,
			Kind:    e.Kind,
			Kernel:  e.Spec.Kernel,
			Spec:    e.Spec,
			Created: e.Created,
			Host:    e.Host,
		}
		if e.Metrics != nil {
			h.Metrics = len(e.Metrics.Metrics)
		}
		out = append(out, h)
	}
	resp := struct {
		Entries []HistoryEntry `json:"entries"`
		Skipped string         `json:"skipped,omitempty"` // unreadable files List stepped over
	}{Entries: out}
	if lerr != nil {
		resp.Skipped = lerr.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHistoryGet returns one stored entry in full, result bytes included.
func (s *Server) handleHistoryGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.storeOr404(w)
	if !ok {
		return
	}
	if e, ok := loadEntry(w, st, r.PathValue("key")); ok {
		writeJSON(w, http.StatusOK, e)
	}
}

// loadEntry reads one stored entry for a history route, answering 400 for a
// malformed key, 500 for an unreadable entry and 404 for a missing one.
func loadEntry(w http.ResponseWriter, st *store.Store, key string) (*store.Entry, bool) {
	e, err := st.Get(key)
	switch {
	case errors.Is(err, store.ErrBadKey):
		writeError(w, http.StatusBadRequest, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	case e == nil:
		writeError(w, http.StatusNotFound, "no stored result for key %s", key)
	default:
		return e, true
	}
	return nil, false
}
