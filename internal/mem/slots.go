package mem

// SlotAlloc models a fully pipelined unit that accepts one new token set per
// cycle, with tagged-token out-of-order semantics: a request ready at cycle c
// takes the smallest *free* cycle >= c, even if later-arriving work already
// claimed later cycles. This is what lets unblocked threads overtake threads
// stalled on memory (§3.5) — a simple monotonic next-free counter would
// serialize everything behind the slowest thread.
//
// Busy cycles are kept as disjoint inclusive spans. The list is bounded:
// once it would exceed maxSpans, compact merges every consecutive pair of
// spans, whatever the gap between them, which marks the free cycles in those
// gaps busy. So "smallest free cycle >= ready" holds exactly only until an
// allocator first passes maxSpans spans; the gaps a compaction closes stay
// busy, and from then on the model over-estimates contention. Registry
// kernels pass the bound routinely, so it is part of the simulated results,
// not a rare fallback.
//
// The trailing span — the one almost every allocation extends — lives in
// dedicated fields (tailLo, tailEnd) rather than at the end of the slice, so
// the hot path of Alloc is small enough for the compiler to inline at the
// engine's call sites. tailEnd is the exclusive end (hi+1); tailEnd == 0
// doubles as "no trailing span" so the zero value is an empty allocator.
type SlotAlloc struct {
	spans   []span // all spans except the trailing one, in order
	tailLo  int64
	tailEnd int64
	// hint/hint2 remember where the two most recent distinct before-tail
	// allocations landed. A stream of rising ready times revisits the same
	// (large, merged) span many times before moving on, and a bank typically
	// serves two interleaved streams probing two distant regions (e.g. a load
	// stream inside the long-merged past and a store stream in the recently
	// archived suffix), so checking both recent positions almost always
	// replaces the binary search. Purely accelerators: validity is re-checked
	// on every use, so a stale hint costs one failed check, never a wrong
	// slot.
	hint  int
	hint2 int
}

type span struct{ lo, hi int64 }

// maxSpans bounds the span list; beyond it, compact merges every
// consecutive pair of spans, closing each gap whatever its size.
const maxSpans = 128

// Alloc claims and returns the smallest free cycle >= ready. The body is
// just the hottest case — extending the trailing span by one cycle, which is
// what happens when unit ready times advance with simulated time; everything
// else lives in allocSlow. (A genuine trailing span ending at cycle -1 also
// has tailEnd == 0 and falls through to the slow path, which handles it
// correctly — the fast path only needs to never extend the empty state.)
func (a *SlotAlloc) Alloc(ready int64) int64 {
	if ready == a.tailEnd && ready != 0 {
		a.tailEnd = ready + 1
		return ready
	}
	return a.allocSlow(ready)
}

// allocSlow handles everything the inline fast path does not. The two
// common residual cases — ready past the trailing span (banks see strided
// arrival times) and a completely empty allocator — stay O(1). An allocation
// before the trailing span runs allocBefore on the archived span list with
// the tail kept in its dedicated fields: banks that see two interleaved
// arrival streams (one ahead of the other, e.g. loads trailing the store
// stream that owns the tail) land past every archived span, which
// allocBefore resolves with one O(1) comparison instead of materializing the
// tail into the slice and searching around it.
func (a *SlotAlloc) allocSlow(ready int64) int64 {
	// Empty is exactly (0, 0): a genuine span ending at -1 (possible only
	// with negative cycles) has a nonzero tailLo, so it is not mistaken for
	// the empty state.
	hasTail := a.tailEnd != 0 || a.tailLo != 0
	if hasTail && ready > a.tailEnd {
		// Gap past the trailing span: archive it and open a new one.
		a.spans = append(a.spans, span{a.tailLo, a.tailEnd - 1})
		a.tailLo, a.tailEnd = ready, ready+1
		if len(a.spans)+1 > maxSpans {
			a.compactAll()
		}
		return ready
	}
	if hasTail && ready >= a.tailLo {
		// Ready inside (or abutting) the trailing span: the smallest free
		// cycle is just past it — the tail is the last span, so nothing
		// claimed lies beyond. This is the steady state of a warm allocator
		// whose spans have merged into one long busy run.
		got := a.tailEnd
		a.tailEnd = got + 1
		return got
	}
	if !hasTail {
		// Invariant: no trailing span means no spans at all.
		a.tailLo, a.tailEnd = ready, ready+1
		return ready
	}
	return a.allocBefore(ready)
}

// compactAll runs compact over the whole span set including the trailing
// span.
func (a *SlotAlloc) compactAll() {
	a.spans = append(a.spans, span{a.tailLo, a.tailEnd - 1})
	a.compact()
	n := len(a.spans) - 1
	a.tailLo, a.tailEnd = a.spans[n].lo, a.spans[n].hi+1
	a.spans = a.spans[:n]
}

// allocBefore claims the smallest free cycle >= ready when ready lies
// strictly before the trailing span (so the result never lands inside the
// tail: archived spans are separated from it by at least one free cycle).
// The span list plus the tail fields always describe the same claimed set
// the old materialize-search-restore algorithm kept, in the same canonical
// sorted disjoint form, so allocation results are bit-identical — only the
// bookkeeping cost changed.
func (a *SlotAlloc) allocBefore(ready int64) int64 {
	n := len(a.spans)
	// Ready past every archived span: the gap between the archived spans and
	// the trailing span is free. This is the hot case for banks serving two
	// interleaved arrival streams and costs one comparison.
	if n == 0 || ready > a.spans[n-1].hi {
		touchPrev := n > 0 && a.spans[n-1].hi == ready-1
		touchTail := a.tailLo == ready+1
		switch {
		case touchPrev && touchTail:
			a.tailLo = a.spans[n-1].lo
			a.spans = a.spans[:n-1]
		case touchPrev:
			a.spans[n-1].hi = ready
		case touchTail:
			a.tailLo = ready
		default:
			a.spans = append(a.spans, span{ready, ready})
			if len(a.spans)+1 > maxSpans {
				a.compactAll()
			}
		}
		return ready
	}

	// Find the first span with hi >= ready (it exists: the last span
	// qualifies). The hint checks match the search's postcondition exactly —
	// spans[i].hi >= ready and either i == 0 or spans[i-1].hi < ready — so
	// hint hits and misses produce the same index. Miss on both recent
	// positions: plain binary search, kept closure-free.
	i := a.hint
	if !(i < n && a.spans[i].hi >= ready && (i == 0 || a.spans[i-1].hi < ready)) {
		i = a.hint2
		if !(i < n && a.spans[i].hi >= ready && (i == 0 || a.spans[i-1].hi < ready)) {
			lo, hi := 0, n-1
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if a.spans[mid].hi >= ready {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			i = lo
		}
	}
	if i != a.hint {
		a.hint2 = a.hint
		a.hint = i
	}

	start := ready
	if a.spans[i].lo <= start {
		// ready is inside span i: the next candidate is just after it;
		// skip across any subsequent abutting spans (defensive — archived
		// spans keep a free cycle between neighbours).
		start = a.spans[i].hi + 1
		for i+1 < n && a.spans[i+1].lo <= start {
			i++
			start = a.spans[i].hi + 1
		}
		// Extend span i and merge with its successor — or with the trailing
		// span — if they now touch.
		a.spans[i].hi = start
		switch {
		case i+1 < n && a.spans[i+1].lo == start+1:
			a.spans[i].hi = a.spans[i+1].hi
			a.spans = append(a.spans[:i+1], a.spans[i+2:]...)
		case i+1 == n && a.tailLo == start+1:
			a.tailLo = a.spans[i].lo
			a.spans = a.spans[:i]
		}
		return start
	}

	// `start` is free. It may abut span i-1 (hi == start-1) or span i
	// (lo == start+1), or both.
	touchPrev := i > 0 && a.spans[i-1].hi == start-1
	touchNext := a.spans[i].lo == start+1
	switch {
	case touchPrev && touchNext:
		a.spans[i-1].hi = a.spans[i].hi
		a.spans = append(a.spans[:i], a.spans[i+1:]...)
	case touchPrev:
		a.spans[i-1].hi = start
	case touchNext:
		a.spans[i].lo = start
	default:
		a.spans = append(a.spans, span{})
		copy(a.spans[i+1:], a.spans[i:])
		a.spans[i] = span{start, start}
		if len(a.spans)+1 > maxSpans {
			a.compactAll()
		}
	}
	return start
}

// compact halves the span list by merging each pair of neighbours across
// their gap (a pessimistic approximation used only under fragmentation).
func (a *SlotAlloc) compact() {
	out := a.spans[:0]
	for i := 0; i < len(a.spans); i += 2 {
		s := a.spans[i]
		if i+1 < len(a.spans) {
			s.hi = a.spans[i+1].hi
		}
		out = append(out, s)
	}
	a.spans = out
}

// Reset clears all allocations.
func (a *SlotAlloc) Reset() {
	a.spans = a.spans[:0]
	a.tailLo, a.tailEnd = 0, 0
	a.hint = 0
}

// Outstanding models a reservation buffer: at most cap operations in flight.
// A new operation ready at cycle c must wait until fewer than cap previously
// issued operations are still incomplete — but, unlike a FIFO ring, a slot
// frees as soon as *its* operation completes, so one slow miss does not
// block the other slots (dynamic dataflow overtaking).
//
// In-flight completion times live in a sorted sliding window: buf[front:]
// is nondecreasing, the minimum sits at the front, and Record inserts with a
// stable backward shift (equal completion times keep their issue order, so
// the pop sequence is exactly the reference (done, issue-order) order — a
// total order, since ties break deterministically by position). Completion
// times arrive nearly sorted (simulated time moves forward), so the shift is
// almost always zero steps and every operation is O(1) in practice — pops
// and retires are a single index bump, with none of a heap's data-dependent
// branch misses. The worst case (fully reversed arrivals) degrades to the
// O(cap) shift the reference list paid on every Admit anyway.
type Outstanding struct {
	cap   int
	front int
	buf   []int64
}

func NewOutstanding(capacity int) *Outstanding {
	return &Outstanding{cap: capacity}
}

// Reset re-arms the buffer for a new run with the given capacity, keeping
// the window's storage. This lets callers embed Outstanding by value in
// reusable scratch arrays (the engine's per-unit pools) so steady-state runs
// allocate nothing.
func (o *Outstanding) Reset(capacity int) {
	o.cap = capacity
	o.buf = o.buf[:0]
	o.front = 0
}

// Admit returns the earliest cycle >= ready at which a slot is available,
// retiring completed operations as time advances. The body is the
// inline-friendly fast path: a free slot and nothing to retire (the window
// minimum still in flight at `ready` means Retire would be a no-op).
// The unsigned compare folds "0 < len < cap" into one branch; it requires a
// positive capacity, which every caller has (the fabric and memory configs
// validate theirs, and a zero-capacity buffer is useless — Admit would
// serialize on an empty window).
func (o *Outstanding) Admit(ready int64) int64 {
	b, f := o.buf, o.front
	if uint(len(b)-f-1) < uint(o.cap-1) && b[f] > ready {
		return ready
	}
	return o.admitSlow(ready)
}

func (o *Outstanding) admitSlow(ready int64) int64 {
	o.Retire(ready)
	if len(o.buf)-o.front < o.cap {
		return ready
	}
	// Full: wait for the earliest completion (ties broken by issue order).
	return o.PopMin()
}

// Record notes a newly issued operation's completion time, keeping the
// window sorted. Completion times usually arrive in order — then this is a
// plain append — and an out-of-order arrival finds its slot by binary search
// for the first strictly-greater entry, so equal completion times land after
// earlier ones: issue order, preserved without storing it. The displaced
// suffix moves with one copy instead of an element-by-element shift, which
// matters when completion times interleave across banks with different
// backlogs and the insertion point is deep inside the window.
func (o *Outstanding) Record(done int64) {
	b := append(o.buf, done)
	if i := len(b) - 1; i > o.front && b[i-1] > done {
		lo, hi := o.front, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b[mid] <= done {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(b[lo+1:], b[lo:i])
		b[lo] = done
	}
	o.buf = b
}

// Retire drops every in-flight operation that completes by `ready`. Admit
// does this implicitly; the engine's batch executor calls it directly while
// deciding wave admission.
func (o *Outstanding) Retire(ready int64) {
	f := o.front
	b := o.buf
	for f < len(b) && b[f] <= ready {
		f++
	}
	o.front = f
	o.shrink()
}

// Len is the number of operations still in flight.
func (o *Outstanding) Len() int { return len(o.buf) - o.front }

// Min returns the earliest in-flight completion time; the buffer must be
// non-empty.
func (o *Outstanding) Min() int64 { return o.buf[o.front] }

// PopMin removes and returns the earliest in-flight completion time (ties
// broken by issue order); the buffer must be non-empty.
func (o *Outstanding) PopMin() int64 {
	v := o.buf[o.front]
	o.front++
	o.shrink()
	return v
}

// shrink reclaims the retired prefix once it reaches the window capacity, so
// buf never grows past live + cap elements: each retired slot is copied down
// at most once before the next compaction, keeping Retire amortized O(1).
func (o *Outstanding) shrink() {
	if o.front >= o.cap {
		n := copy(o.buf, o.buf[o.front:])
		o.buf = o.buf[:n]
		o.front = 0
	}
}
