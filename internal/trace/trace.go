// Package trace is the cycle-level observability layer shared by the three
// simulators (VGIW, SIMT, SGMF). It provides:
//
//   - Sink: an event sink the backends emit cycle-stamped spans, instants,
//     and counter samples into. A nil or category-filtered sink costs one
//     pointer/mask check per call site and allocates nothing, so tracing can
//     stay compiled into the hot paths (the engine's 0 allocs/op contract is
//     enforced by BenchmarkEngineHotPath). Storage is ring-buffered in
//     fixed-size blocks: when the retention cap is reached the oldest block
//     is recycled in place, so a trace of an arbitrarily long run holds
//     bounded memory and keeps the newest events.
//   - Chrome trace-event JSON export (chrome.go), loadable in Perfetto, with
//     one process per machine run and one track per scheduler/fabric
//     unit/memory feed.
//   - Registry (registry.go): a flat named counter/histogram registry that
//     the experiment harness folds results into, giving BENCH_*.json a
//     stable schema.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Cat is a bitmask of event categories, used by -trace-filter to bound event
// volume (per-node firings and per-access LVC events dwarf the scheduler
// spans by orders of magnitude).
type Cat uint32

const (
	// CatVGIW covers the BBS: block-vector launch/retire spans and
	// reconfiguration windows.
	CatVGIW Cat = 1 << iota
	// CatCVT covers control vector table enqueue (terminator batch packets)
	// and coalesce (read-and-reset drain) events.
	CatCVT
	// CatLVC covers live value cache hit/miss/spill events.
	CatLVC
	// CatSIMT covers warp issue/stall/divergence/reconvergence/barrier
	// events on the baseline SM.
	CatSIMT
	// CatSGMF covers the SGMF whole-kernel run spans.
	CatSGMF
	// CatEngine covers per-node firing events on the MT-CGRF fabric (both
	// VGIW block graphs and the SGMF whole-kernel graph). High volume.
	CatEngine
	// CatMem covers the per-epoch memory-system counter samples.
	CatMem

	// CatAll enables everything.
	CatAll Cat = 1<<7 - 1
)

// catNames maps -trace-filter tokens to category bits.
var catNames = map[string]Cat{
	"vgiw":   CatVGIW,
	"cvt":    CatCVT,
	"lvc":    CatLVC,
	"simt":   CatSIMT,
	"sgmf":   CatSGMF,
	"engine": CatEngine,
	"mem":    CatMem,
	"all":    CatAll,
}

// ParseCats parses a comma-separated category filter ("vgiw,cvt,mem"). The
// empty string means all categories.
func ParseCats(s string) (Cat, error) {
	if strings.TrimSpace(s) == "" {
		return CatAll, nil
	}
	var c Cat
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(strings.ToLower(tok))
		if tok == "" {
			continue
		}
		bit, ok := catNames[tok]
		if !ok {
			return 0, fmt.Errorf("trace: unknown category %q (have %s)", tok, CatNames())
		}
		c |= bit
	}
	if c == 0 {
		return 0, fmt.Errorf("trace: empty category filter")
	}
	return c, nil
}

// CatNames lists the recognised filter tokens.
func CatNames() string {
	names := make([]string, 0, len(catNames))
	for n := range catNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func (c Cat) String() string {
	if c == CatAll {
		return "all"
	}
	var parts []string
	for _, n := range []string{"vgiw", "cvt", "lvc", "simt", "sgmf", "engine", "mem"} {
		if c&catNames[n] != 0 {
			parts = append(parts, n)
		}
	}
	return strings.Join(parts, ",")
}

// Phase is the Chrome trace-event phase of an event.
type Phase byte

const (
	// PhaseSpan is a complete event ("X"): a [Ts, Ts+Dur) interval.
	PhaseSpan Phase = 'X'
	// PhaseInstant is a point event ("i").
	PhaseInstant Phase = 'i'
	// PhaseCounter is a counter sample ("C"): V1 under K1 (and optionally
	// V2/K2, V3/K3) plotted as a counter track.
	PhaseCounter Phase = 'C'
)

// TrackID addresses one horizontal track of the trace: Pid groups tracks
// into a process (one machine run), Tid is the track within it.
type TrackID struct {
	Pid int32
	Tid int32
}

// Event is one trace record. Name and the arg keys must be static (or
// otherwise long-lived) strings: the sink stores them by reference and never
// copies, which is what keeps Emit allocation-free.
type Event struct {
	Name  string
	Cat   Cat
	Phase Phase
	Track TrackID
	Ts    int64 // cycle the event starts
	Dur   int64 // span length in cycles (PhaseSpan only)

	// Up to three integer args, rendered into the Chrome "args" object.
	// An empty key ends the list.
	K1, K2, K3 string
	V1, V2, V3 int64
}

// blockEvents is the per-block capacity. 2048 events * ~2 cache lines keeps
// the ring's granularity fine without large single allocations.
const blockEvents = 2048

type eventBlock struct {
	ev [blockEvents]Event
	n  int
}

// DefaultMaxEvents bounds a sink's retained events (~1M events, a few
// hundred MB worst case) unless overridden with SetMaxEvents.
const DefaultMaxEvents = 1 << 20

// Sink collects events. The zero value is not usable; construct with
// NewSink. A nil *Sink is valid everywhere and means "tracing disabled":
// every method is a cheap no-op, so backends hold a possibly-nil sink and
// call it unconditionally.
type Sink struct {
	mask Cat

	mu      sync.Mutex
	blocks  []*eventBlock // ring: blocks[head] is the oldest
	head    int
	maxBlk  int
	dropped uint64 // events lost to ring wrap-around

	nextPid int32
	procs   map[int32]string
	tracks  map[TrackID]string
}

// NewSink creates a sink accepting the given categories.
func NewSink(mask Cat) *Sink {
	if mask == 0 {
		mask = CatAll
	}
	return &Sink{
		mask:    mask,
		maxBlk:  (DefaultMaxEvents + blockEvents - 1) / blockEvents,
		nextPid: 1,
		procs:   make(map[int32]string),
		tracks:  make(map[TrackID]string),
	}
}

// SetMaxEvents bounds the retained event count (rounded up to whole blocks).
// Older events are recycled once the bound is hit.
func (s *Sink) SetMaxEvents(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.maxBlk = (n + blockEvents - 1) / blockEvents
	if s.maxBlk < 1 {
		s.maxBlk = 1
	}
	s.mu.Unlock()
}

// Enabled reports whether events of the category would be recorded. Call
// sites with non-trivial argument construction should guard on it; plain
// Emit calls need not (Emit performs the same check).
//
//vgiw:hotpath
func (s *Sink) Enabled(c Cat) bool { return s != nil && s.mask&c != 0 }

// Emit records one event. Safe for concurrent use; a nil sink or a filtered
// category is a no-op with no allocation.
//
//vgiw:hotpath
func (s *Sink) Emit(e Event) {
	if s == nil || s.mask&e.Cat == 0 {
		return
	}
	s.mu.Lock()
	blk := s.tail()
	if blk == nil || blk.n == blockEvents {
		blk = s.grow()
	}
	blk.ev[blk.n] = e
	blk.n++
	s.mu.Unlock()
}

// tail returns the newest block, or nil when empty. Caller holds mu.
func (s *Sink) tail() *eventBlock {
	if len(s.blocks) == 0 {
		return nil
	}
	return s.blocks[(s.head+len(s.blocks)-1)%len(s.blocks)]
}

// grow appends a fresh block, recycling the oldest block in place once the
// ring is full. Caller holds mu.
func (s *Sink) grow() *eventBlock {
	if len(s.blocks) < s.maxBlk {
		blk := new(eventBlock)
		// Insert as the newest element: ring order is blocks[head..head-1].
		if s.head == 0 {
			s.blocks = append(s.blocks, blk)
		} else {
			s.blocks = append(s.blocks, nil)
			copy(s.blocks[s.head+1:], s.blocks[s.head:])
			s.blocks[s.head] = blk
			s.head++
		}
		return blk
	}
	// Ring full: the oldest block becomes the newest, its events dropped.
	blk := s.blocks[s.head]
	s.head = (s.head + 1) % len(s.blocks)
	s.dropped += uint64(blk.n)
	blk.n = 0
	return blk
}

// Dropped reports how many events were lost to the retention cap.
func (s *Sink) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Len reports the number of retained events.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lenLocked()
}

// lenLocked counts retained events. Caller holds mu.
func (s *Sink) lenLocked() int {
	n := 0
	for _, b := range s.blocks {
		n += b.n
	}
	return n
}

// forEach visits retained events oldest-first. Caller must hold mu.
func (s *Sink) forEach(fn func(*Event)) {
	for i := 0; i < len(s.blocks); i++ {
		blk := s.blocks[(s.head+i)%len(s.blocks)]
		for j := 0; j < blk.n; j++ {
			fn(&blk.ev[j])
		}
	}
}

// AllocProcess reserves a fresh process ID named after one machine run
// ("bfs.kernel1/vgiw"). Each backend groups its tracks under the pid so
// traces of multi-kernel sweeps stay readable.
func (s *Sink) AllocProcess(name string) int32 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	pid := s.nextPid
	s.nextPid++
	s.procs[pid] = name
	s.mu.Unlock()
	return pid
}

// DefineTrack names one track (thread) of a process. Re-definitions
// overwrite, so per-run track layouts can reuse tids.
func (s *Sink) DefineTrack(t TrackID, name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tracks[t] = name
	s.mu.Unlock()
}
