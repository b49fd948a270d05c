package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is the JSON form of one Chrome trace-event record
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Perfetto's legacy JSON importer loads this format directly.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Pid  int32            `json:"pid"`
	Tid  int32            `json:"tid"`
	Ts   int64            `json:"ts"`
	Dur  *int64           `json:"dur,omitempty"`
	Cat  string           `json:"cat,omitempty"`
	S    string           `json:"s,omitempty"`    // instant scope
	Args map[string]int64 `json:"args,omitempty"` // numeric args only
}

// chromeMeta is a metadata record ("M"): process/thread names.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int32             `json:"pid"`
	Tid  int32             `json:"tid"`
	Args map[string]string `json:"args"`
}

// chromeRecord renders one event as its Chrome trace-event record.
func chromeRecord(e *Event) chromeEvent {
	ce := chromeEvent{
		Name: e.Name,
		Ph:   string(rune(e.Phase)),
		Pid:  e.Track.Pid,
		Tid:  e.Track.Tid,
		Ts:   e.Ts,
		Cat:  e.Cat.String(),
	}
	if e.Phase == PhaseSpan {
		d := e.Dur
		ce.Dur = &d
	}
	if e.Phase == PhaseInstant {
		ce.S = "t" // thread-scoped instant
	}
	if e.K1 != "" {
		ce.Args = map[string]int64{e.K1: e.V1}
		if e.K2 != "" {
			ce.Args[e.K2] = e.V2
		}
		if e.K3 != "" {
			ce.Args[e.K3] = e.V3
		}
	}
	return ce
}

// WriteChromeTrace exports the retained events as Chrome trace-event JSON
// ({"traceEvents": [...]}). Timestamps are simulated cycles (the viewer's
// time unit is microseconds; 1 us == 1 cycle here). Events appear
// oldest-first; process and thread name metadata precedes them so Perfetto
// labels every track.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Metadata: stable pid/tid order so exports diff cleanly.
	pids := make([]int32, 0, len(s.procs))
	for pid := range s.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		if err := emit(chromeMeta{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": s.procs[pid]}}); err != nil {
			return err
		}
	}
	tracks := make([]TrackID, 0, len(s.tracks))
	for t := range s.tracks {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].Pid != tracks[j].Pid {
			return tracks[i].Pid < tracks[j].Pid
		}
		return tracks[i].Tid < tracks[j].Tid
	})
	for _, t := range tracks {
		if err := emit(chromeMeta{Name: "thread_name", Ph: "M", Pid: t.Pid, Tid: t.Tid,
			Args: map[string]string{"name": s.tracks[t]}}); err != nil {
			return err
		}
	}

	var exportErr error
	s.forEach(func(e *Event) {
		if exportErr != nil {
			return
		}
		exportErr = emit(chromeRecord(e))
	})
	if exportErr != nil {
		return exportErr
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateChromeTrace checks that data parses as a Chrome trace-event JSON
// object and that every record satisfies the schema the viewers require:
// a known phase, a name, non-negative timestamps, a duration on complete
// events, and args on counter samples. It returns the number of non-metadata
// events.
func ValidateChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("trace: not a trace-event JSON object: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("trace: missing traceEvents array")
	}
	n := 0
	for i, raw := range doc.TraceEvents {
		var e struct {
			Name *string         `json:"name"`
			Ph   string          `json:"ph"`
			Pid  *int64          `json:"pid"`
			Tid  *int64          `json:"tid"`
			Ts   *int64          `json:"ts"`
			Dur  *int64          `json:"dur"`
			Args json.RawMessage `json:"args"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			return n, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if e.Name == nil || *e.Name == "" {
			return n, fmt.Errorf("trace: event %d: missing name", i)
		}
		if e.Pid == nil {
			return n, fmt.Errorf("trace: event %d (%s): missing pid", i, *e.Name)
		}
		switch e.Ph {
		case "M":
			if len(e.Args) == 0 {
				return n, fmt.Errorf("trace: metadata event %d (%s): missing args", i, *e.Name)
			}
			continue
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return n, fmt.Errorf("trace: event %d (%s): complete event needs dur >= 0", i, *e.Name)
			}
		case "i", "I":
			// instant: ts only
		case "C":
			if len(e.Args) == 0 {
				return n, fmt.Errorf("trace: counter event %d (%s): missing args", i, *e.Name)
			}
		default:
			return n, fmt.Errorf("trace: event %d (%s): unknown phase %q", i, *e.Name, e.Ph)
		}
		if e.Ts == nil || *e.Ts < 0 {
			return n, fmt.Errorf("trace: event %d (%s): missing or negative ts", i, *e.Name)
		}
		n++
	}
	return n, nil
}
