package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseCats(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Cat
		ok   bool
	}{
		{"", CatAll, true},
		{"all", CatAll, true},
		{"vgiw", CatVGIW, true},
		{"vgiw,cvt,lvc", CatVGIW | CatCVT | CatLVC, true},
		{" SIMT , mem ", CatSIMT | CatMem, true},
		{"bogus", 0, false},
		{",", 0, false},
	} {
		got, err := ParseCats(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseCats(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseCats(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSinkFilters(t *testing.T) {
	s := NewSink(CatVGIW)
	s.Emit(Event{Name: "keep", Cat: CatVGIW, Phase: PhaseInstant})
	s.Emit(Event{Name: "drop", Cat: CatSIMT, Phase: PhaseInstant})
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (filtered category must be dropped)", s.Len())
	}
	if !s.Enabled(CatVGIW) || s.Enabled(CatSIMT) {
		t.Fatal("Enabled does not reflect the mask")
	}
}

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	s.Emit(Event{Name: "x", Cat: CatVGIW})
	s.DefineTrack(TrackID{1, 1}, "t")
	s.AllocProcess("p")
	s.SetMaxEvents(10)
	if s.Enabled(CatAll) || s.Len() != 0 || s.Dropped() != 0 {
		t.Fatal("nil sink must report disabled/empty")
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("nil sink export invalid: %v", err)
	}
}

// TestEmitDisabledZeroAlloc pins the overhead contract: a nil sink and a
// category-filtered sink allocate nothing on Emit. The engine hot path
// relies on this (BenchmarkEngineHotPath's 0 allocs/op).
func TestEmitDisabledZeroAlloc(t *testing.T) {
	var nilSink *Sink
	filtered := NewSink(CatVGIW)
	ev := Event{Name: "node", Cat: CatEngine, Phase: PhaseSpan, Ts: 1, Dur: 2, K1: "tid", V1: 3}
	if n := testing.AllocsPerRun(100, func() { nilSink.Emit(ev) }); n != 0 {
		t.Errorf("nil sink Emit allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { filtered.Emit(ev) }); n != 0 {
		t.Errorf("filtered Emit allocates %v/op, want 0", n)
	}
}

// TestEmitEnabledSteadyStateZeroAlloc checks that recording events does not
// allocate per event once a block exists: a full ring recycles its oldest
// block in place.
func TestEmitEnabledSteadyStateZeroAlloc(t *testing.T) {
	s := NewSink(CatAll)
	s.SetMaxEvents(blockEvents) // single block, ring recycles in place
	ev := Event{Name: "node", Cat: CatEngine, Phase: PhaseInstant, Ts: 1}
	s.Emit(ev) // allocate the first block
	if n := testing.AllocsPerRun(2*blockEvents, func() { s.Emit(ev) }); n > 0.01 {
		t.Errorf("steady-state Emit allocates %v/op, want ~0", n)
	}
}

func TestRingRecyclesOldest(t *testing.T) {
	s := NewSink(CatAll)
	s.SetMaxEvents(2 * blockEvents)
	total := 5 * blockEvents
	for i := 0; i < total; i++ {
		s.Emit(Event{Name: "e", Cat: CatVGIW, Phase: PhaseInstant, Ts: int64(i)})
	}
	if s.Len() != 2*blockEvents {
		t.Fatalf("Len = %d, want %d", s.Len(), 2*blockEvents)
	}
	if got, want := s.Dropped(), uint64(total-2*blockEvents); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	// The retained window must be the newest events, oldest-first.
	s.mu.Lock()
	var first, last int64 = -1, -1
	prev := int64(-1)
	ordered := true
	s.forEach(func(e *Event) {
		if first == -1 {
			first = e.Ts
		}
		if e.Ts <= prev {
			ordered = false
		}
		prev = e.Ts
		last = e.Ts
	})
	s.mu.Unlock()
	if !ordered {
		t.Fatal("retained events out of order")
	}
	if first != int64(total-2*blockEvents) || last != int64(total-1) {
		t.Fatalf("retained window [%d,%d], want [%d,%d]", first, last, total-2*blockEvents, total-1)
	}
}

func TestChromeExportAndValidate(t *testing.T) {
	s := NewSink(CatAll)
	pid := s.AllocProcess("bfs.kernel1/vgiw")
	bbs := TrackID{pid, 0}
	s.DefineTrack(bbs, "bbs")
	s.Emit(Event{Name: "reconfig", Cat: CatVGIW, Phase: PhaseSpan, Track: bbs, Ts: 0, Dur: 16})
	s.Emit(Event{Name: "entry", Cat: CatVGIW, Phase: PhaseSpan, Track: bbs, Ts: 16, Dur: 120,
		K1: "block", V1: 0, K2: "threads", V2: 64})
	s.Emit(Event{Name: "cvt.coalesce", Cat: CatCVT, Phase: PhaseInstant, Track: bbs, Ts: 140, K1: "block", V1: 1})
	s.Emit(Event{Name: "mem", Cat: CatMem, Phase: PhaseCounter, Track: bbs, Ts: 150,
		K1: "l1_accesses", V1: 10, K2: "l1_misses", V2: 2})

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("export fails own validation: %v\n%s", err, buf.String())
	}
	if n != 4 {
		t.Fatalf("validated %d events, want 4", n)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"bfs.kernel1/vgiw"`, `"thread_name"`, `"bbs"`,
		`"reconfig"`, `"threads":64`, `"ph":"C"`, `"ph":"i"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
	// Round-trip through encoding/json to confirm it is plain JSON.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":     `{"traceEvents":`,
		"no array":     `{}`,
		"unnamed":      `{"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":1}]}`,
		"bad phase":    `{"traceEvents":[{"name":"x","ph":"Z","pid":1,"tid":0,"ts":1}]}`,
		"span no dur":  `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":1}]}`,
		"neg ts":       `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":0,"ts":-5}]}`,
		"counter bare": `{"traceEvents":[{"name":"x","ph":"C","pid":1,"tid":0,"ts":1}]}`,
		"no pid":       `{"traceEvents":[{"name":"x","ph":"i","tid":0,"ts":1}]}`,
	} {
		if _, err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted invalid trace", name)
		}
	}
}

func TestRegistryCountersAndHists(t *testing.T) {
	r := NewRegistry()
	r.Add("a.count", 2)
	r.Add("a.count", 3)
	r.Set("a.gauge", 7)
	r.Observe("a.lat", 0)
	r.Observe("a.lat", 5)
	r.Observe("a.lat", 100)
	if got := r.counters["a.count"]; got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	h := r.hists["a.lat"]
	if h.Count != 3 || h.Sum != 105 || h.Min != 0 || h.Max != 100 {
		t.Errorf("hist = %+v", h)
	}
	if h.Buckets[0] != 1 || h.Buckets[3] != 1 || h.Buckets[7] != 1 {
		t.Errorf("buckets = %v", h.Buckets[:10])
	}
	names := r.Names()
	want := []string{"a.count", "a.gauge", "a.lat"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}

	flat := r.Flat()
	if flat["a.lat.count"] != 3 || flat["a.lat.sum"] != 105 || flat["a.lat.mean_x1000"] != 35000 {
		t.Errorf("flat = %v", flat)
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Add("c", 1)
	a.Observe("h", 10)
	b.Add("c", 2)
	b.Add("only-b", 4)
	b.Observe("h", 2)
	a.Merge(b)
	if a.counters["c"] != 3 || a.counters["only-b"] != 4 {
		t.Errorf("merged counters wrong: c=%d only-b=%d", a.counters["c"], a.counters["only-b"])
	}
	h := a.hists["h"]
	if h.Count != 2 || h.Sum != 12 || h.Min != 2 || h.Max != 10 {
		t.Errorf("merged hist = %+v", h)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("suite/kernels", 15)
	r.Observe("bfs.kernel1/vgiw.block_threads", 64)
	var buf bytes.Buffer
	if n, err := r.WriteSnapshot(&buf, 2); err != nil || n != 6 {
		t.Fatalf("wrote %d series (%v), want the counter and five histogram series", n, err)
	}
	if n := strings.Count(strings.TrimRight(buf.String(), "\n"), "\n"); n != 0 {
		t.Fatalf("snapshot is %d+1 lines, want exactly one", n+1)
	}
	snap, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != MetricsSchema || snap.Scale != 2 {
		t.Fatalf("snapshot envelope = %+v", snap)
	}
	if snap.Metrics["suite/kernels"] != 15 {
		t.Fatalf("metrics = %v", snap.Metrics)
	}
	if _, err := ReadSnapshot([]byte(`{"schema":"vgiw-metrics/v999","metrics":{}}`)); err == nil {
		t.Fatal("ReadSnapshot accepted an unknown schema version")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Set("x", 1)
	r.Observe("x", 1)
	r.Merge(NewRegistry())
	if r.Names() != nil || r.Flat() != nil {
		t.Fatal("nil registry must be empty")
	}
	var buf bytes.Buffer
	if n, err := r.WriteSnapshot(&buf, 1); err != nil || n != 0 {
		t.Fatalf("wrote %d series (%v) from a nil registry", n, err)
	}
	if _, err := ReadSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}
