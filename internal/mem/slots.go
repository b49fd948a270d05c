package mem

import (
	"math"
	"math/bits"
	"sync"
)

// SlotAlloc models a fully pipelined unit that accepts one new token set per
// cycle, with tagged-token out-of-order semantics: a request ready at cycle c
// takes the smallest *free* cycle >= c, even if later-arriving work already
// claimed later cycles. This is what lets unblocked threads overtake threads
// stalled on memory (§3.5) — a simple monotonic next-free counter would
// serialize everything behind the slowest thread.
//
// The claimed set is kept in two parts. The trailing busy run [lo, end) —
// the run of claimed cycles that ends at the newest claim, which almost every
// allocation extends — lives in two scalar fields, so the extend and
// inside-the-run cases touch nothing but the struct and Alloc's hot path
// inlines at the engine's call sites. Every cycle below the run, back to
// slotWindow cycles under the newest claim, is one bit of a ring searched a
// word at a time. A request ready further back than that is clamped to the
// window's start; below the window the allocator remembers nothing. The
// clamp is the only difference from exact tracking, and over the registry
// at scales 1-16 it never fires (EXPERIMENTS.md, *Slot-allocator window*).
//
// The zero value is an empty allocator. lo == end means nothing is claimed.
type SlotAlloc struct {
	lo, end int64
	// ring holds the claimed cycles below lo inside the window: bit
	// c mod slotWindow is cycle c. It is taken from ringPool on first need
	// and is nil until then.
	ring *slotRing
	// low bounds the ring's set bits: every set bit is the bit of some
	// cycle in [low, end), so Reset clears only that range. It is
	// math.MaxInt64 when no bit has been set since the last Reset.
	low int64
}

// slotWindow is W, how many cycles below the newest claim an allocator
// remembers, and the ring's size in bits (8 KB). It is twice the deepest
// request the registry makes at scale 16 (31,106 cycles below the newest
// claim), so no registry run at scales 1-16 is clamped. It must stay a
// multiple of 64, so a ring word never wraps.
const slotWindow = 1 << 16

// slotRing is one allocator's window bitmap.
type slotRing [slotWindow / 64]uint64

// ringPool recycles rings across allocators and runs. Every ring in it is
// all zero: Release clears what its allocator set before putting it back.
var ringPool = sync.Pool{New: func() any { return new(slotRing) }}

// Alloc claims and returns the smallest free cycle >= ready. The body is
// just the hottest case — extending the trailing run by one cycle, which is
// what happens when unit ready times advance with simulated time (from the
// empty state, lo == end == 0, it opens the run [0, 1)); everything else
// lives in allocSlow.
func (a *SlotAlloc) Alloc(ready int64) int64 {
	if ready == a.end {
		a.end = ready + 1
		return ready
	}
	return a.allocSlow(ready)
}

// allocSlow handles everything the inline fast path does not: the first
// claim, a gap past the run (banks see strided arrival times), a request
// inside the run, and one below it.
func (a *SlotAlloc) allocSlow(ready int64) int64 {
	switch {
	case a.lo == a.end:
		a.lo, a.end = ready, ready+1
		return ready
	case ready > a.end:
		a.archive(ready)
		a.lo, a.end = ready, ready+1
		return ready
	}
	if ws := a.end - 1 - slotWindow; ready < ws {
		ready = ws
	}
	if ready >= a.lo {
		// Inside the run: nothing is free before its end, and nothing
		// beyond it is claimed.
		got := a.end
		a.end = got + 1
		return got
	}
	return a.allocBelow(ready)
}

// archive moves the trailing run into the ring before a new run opens at
// next, and clears whatever older claims the free gap between them could
// alias, so that the ring then holds every cycle of the new window below next
// exactly.
func (a *SlotAlloc) archive(next int64) {
	ws := next - slotWindow
	from := max(a.lo, ws)
	clr := next // the gap's bits from clr on may hold older claims
	if a.ring == nil {
		if from >= a.end {
			return // the old run is entirely below the new window
		}
		a.ring = ringPool.Get().(*slotRing)
		a.low = from
	} else {
		if a.low <= ws {
			// Gap cycles a window or more above the lowest set bit may
			// share a bit with an older claim.
			clr = max(a.end, ws, a.low+slotWindow)
		}
		a.low = max(min(a.low, from), ws)
	}
	if from>>6 == (next-1)>>6 {
		// The usual case: the run's kept part and the gap share one word.
		base := from &^ 63
		w := &a.ring[uint64(from)&(slotWindow-1)>>6]
		*w = *w&^bitSpan(clr-base, next-base) | bitSpan(from-base, a.end-base)
		return
	}
	a.ring.fill(clr, next, false)
	a.ring.fill(from, a.end, true)
}

// allocBelow claims the smallest free cycle >= ready for a ready inside the
// window and below the run.
func (a *SlotAlloc) allocBelow(ready int64) int64 {
	r := a.ring
	if r == nil {
		r = ringPool.Get().(*slotRing)
		a.ring, a.low = r, ready
	}
	for c := ready; c < a.lo; {
		p := uint64(c) & (slotWindow - 1)
		free := ^r[p>>6] >> (p & 63) // bit i: cycle c+i is free
		if free == 0 {
			c += 64 - int64(p&63)
			continue
		}
		c += int64(bits.TrailingZeros64(free))
		if c >= a.lo {
			break
		}
		p = uint64(c) & (slotWindow - 1)
		r[p>>6] |= 1 << (p & 63)
		a.low = min(a.low, c)
		return c
	}
	// Every cycle from ready up to the run is busy.
	got := a.end
	a.end = got + 1
	return got
}

// fill sets (busy) or clears the bits of cycles [from, to); to-from must not
// exceed slotWindow. Whole words in between take one store each.
func (r *slotRing) fill(from, to int64, busy bool) {
	for from < to {
		p := uint64(from) & (slotWindow - 1)
		q := min(p+uint64(to-from), slotWindow) // stop at the ring's end
		i, j := p>>6, (q-1)>>6
		lo, hi := ^uint64(0)<<(p&63), ^uint64(0)>>(63-(q-1)&63)
		if i == j {
			lo &= hi
			hi = 0
		}
		var mid uint64
		if busy {
			r[i] |= lo
			r[j] |= hi
			mid = ^uint64(0)
		} else {
			r[i] &^= lo
			r[j] &^= hi
		}
		for k := i + 1; k < j; k++ {
			r[k] = mid
		}
		from += int64(q - p)
	}
}

// bitSpan is the mask of bits [i, j) of a word, for 0 <= i and j <= 64;
// it is empty when i >= j.
func bitSpan(i, j int64) uint64 {
	if i >= j {
		return 0
	}
	return ^uint64(0) >> (64 - (j - i)) << i
}

// Reset clears all allocations, keeping the ring for the next run.
func (a *SlotAlloc) Reset() {
	if a.ring != nil && a.low < a.end {
		if a.end-a.low >= slotWindow {
			clear(a.ring[:])
		} else {
			a.ring.fill(a.low, a.end, false)
		}
	}
	a.lo, a.end, a.low = 0, 0, math.MaxInt64
}

// Release clears all allocations and returns the ring to the pool, where
// another allocator may take it. The allocator stays usable and takes a
// ring again when it next needs one.
func (a *SlotAlloc) Release() {
	a.Reset()
	if a.ring != nil {
		ringPool.Put(a.ring)
		a.ring = nil
	}
}

// releaseSlots releases every allocator of a bank array.
func releaseSlots(s []SlotAlloc) {
	for i := range s {
		s[i].Release()
	}
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
