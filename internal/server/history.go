package server

// The history API reads the persistent result store back out over HTTP:
// GET /v1/history lists stored entries (filterable), GET /v1/history/{key}
// returns one full entry, and GET /v1/history/diff compares the metric
// snapshots of two entries — the server-side half of the regression story
// cmd/benchgate implements offline.

import (
	"net/http"
	"sort"
	"strings"
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
	key := r.PathValue("key")
	e, err := st.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if e == nil {
		writeError(w, http.StatusNotFound, "no stored result for key %s", key)
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// MetricDelta is one metric that differs between two stored snapshots.
type MetricDelta struct {
	Name  string `json:"name"`
	From  uint64 `json:"from"`
	To    uint64 `json:"to"`
	Delta int64  `json:"delta"` // to - from
}

// HistoryDiff is the wire form of /v1/history/diff.
type HistoryDiff struct {
	From        string        `json:"from"`
	To          string        `json:"to"`
	FromCreated time.Time     `json:"from_created"`
	ToCreated   time.Time     `json:"to_created"`
	Changed     []MetricDelta `json:"changed"`
	OnlyFrom    []string      `json:"only_from,omitempty"`
	OnlyTo      []string      `json:"only_to,omitempty"`
	Unchanged   int           `json:"unchanged"`
}

// DiffSnapshots compares two metric maps, name-sorted, for the HTTP diff
// endpoint (GET /v1/history/diff).
func DiffSnapshots(from, to map[string]uint64, prefix string) (changed []MetricDelta, onlyFrom, onlyTo []string, unchanged int) {
	for name, fv := range from {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		tv, ok := to[name]
		switch {
		case !ok:
			onlyFrom = append(onlyFrom, name)
		case tv == fv:
			unchanged++
		default:
			changed = append(changed, MetricDelta{Name: name, From: fv, To: tv, Delta: int64(tv) - int64(fv)})
		}
	}
	for name := range to {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if _, ok := from[name]; !ok {
			onlyTo = append(onlyTo, name)
		}
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i].Name < changed[j].Name })
	sort.Strings(onlyFrom)
	sort.Strings(onlyTo)
	return changed, onlyFrom, onlyTo, unchanged
}

// handleHistoryDiff compares the metric snapshots of two stored entries:
// GET /v1/history/diff?from=<key>&to=<key>[&prefix=<metric prefix>].
func (s *Server) handleHistoryDiff(w http.ResponseWriter, r *http.Request) {
	st, ok := s.storeOr404(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	fromKey, toKey := q.Get("from"), q.Get("to")
	if fromKey == "" || toKey == "" {
		writeError(w, http.StatusBadRequest, "diff needs both ?from= and ?to= entry keys")
		return
	}
	load := func(key string) (*store.Entry, bool) {
		e, err := st.Get(key)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return nil, false
		}
		if e == nil {
			writeError(w, http.StatusNotFound, "no stored result for key %s", key)
			return nil, false
		}
		return e, true
	}
	from, ok := load(fromKey)
	if !ok {
		return
	}
	to, ok := load(toKey)
	if !ok {
		return
	}
	metricsOf := func(e *store.Entry) map[string]uint64 {
		if e.Metrics == nil {
			return nil
		}
		return e.Metrics.Metrics
	}
	d := HistoryDiff{
		From:        from.Key,
		To:          to.Key,
		FromCreated: from.Created,
		ToCreated:   to.Created,
	}
	d.Changed, d.OnlyFrom, d.OnlyTo, d.Unchanged = DiffSnapshots(metricsOf(from), metricsOf(to), q.Get("prefix"))
	if d.Changed == nil {
		d.Changed = []MetricDelta{}
	}
	writeJSON(w, http.StatusOK, d)
}
