package mem

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// slotOracle is SlotAlloc's specification by brute force: the set of
// claimed cycles, with a request older than the window clamped to the
// window's start, slotWindow cycles under the newest claim.
type slotOracle struct {
	claimed map[int64]bool
	newest  int64
}

func newSlotOracle() *slotOracle { return &slotOracle{claimed: map[int64]bool{}} }

func (o *slotOracle) alloc(ready int64) int64 {
	if len(o.claimed) > 0 && ready < o.newest-slotWindow {
		ready = o.newest - slotWindow
	}
	c := ready
	for o.claimed[c] {
		c++
	}
	if len(o.claimed) == 0 || c > o.newest {
		o.newest = c
	}
	o.claimed[c] = true
	return c
}

// Stream operations. Each picks its ready time relative to the newest
// claim, so a stream reaches every case of the allocator whatever came
// before it.
const (
	opExtend  = iota // the cycle after the newest claim
	opGap            // n cycles past it (n up to 3W: gaps beyond the window)
	opBelow          // n cycles under it: inside the run, below it, or clamped
	opClamp          // within a few cycles of the window's start (n-2)
	opReset          // Reset between rounds
	opRelease        // Release between rounds
	numSlotOps
)

type slotOp struct {
	kind int
	n    int64
}

// slotHarness drives an allocator and the oracle side by side.
type slotHarness struct {
	t    testing.TB
	a    SlotAlloc
	o    *slotOracle
	base int64 // ready time of the first claim after a reset
}

func (h *slotHarness) step(op slotOp) {
	h.t.Helper()
	var ready int64
	switch op.kind {
	case opReset, opRelease:
		r := h.a.ring
		if op.kind == opReset {
			h.a.Reset()
		} else {
			h.a.Release()
			if h.a.ring != nil {
				h.t.Fatal("Release kept the ring")
			}
		}
		// A stale bit would reach the next run — or, through the pool,
		// another machine's allocator.
		if r != nil {
			for i, w := range r {
				if w != 0 {
					h.t.Fatalf("ring word %d = %#x after %s, want 0", i, w, map[bool]string{true: "Reset", false: "Release"}[op.kind == opReset])
				}
			}
		}
		h.o = newSlotOracle()
		return
	case opExtend:
		ready = h.o.newest + 1
	case opGap:
		ready = h.o.newest + 1 + op.n
	case opBelow:
		ready = h.o.newest - op.n
	case opClamp:
		ready = h.o.newest - slotWindow + op.n - 2
	}
	if len(h.o.claimed) == 0 {
		ready = h.base + op.n
	}
	want := h.o.alloc(ready)
	if got := h.a.Alloc(ready); got != want {
		h.t.Fatalf("Alloc(%d) = %d, oracle %d (run [%d, %d), %d claimed)", ready, got, want, h.a.lo, h.a.end, len(h.o.claimed))
	}
}

// randomSlotOp draws one operation; deep lookbacks and wide gaps are rare
// enough that the window holds long runs and many holes between them.
func randomSlotOp(rng *rand.Rand) slotOp {
	switch r := rng.IntN(100); {
	case r < 40:
		return slotOp{kind: opExtend}
	case r < 55:
		if rng.IntN(20) == 0 {
			return slotOp{opGap, rng.Int64N(3 * slotWindow)}
		}
		return slotOp{opGap, rng.Int64N(200)}
	case r < 90:
		if rng.IntN(10) == 0 {
			return slotOp{opBelow, rng.Int64N(slotWindow + 500)}
		}
		return slotOp{opBelow, rng.Int64N(3000)}
	case r < 97:
		return slotOp{opClamp, rng.Int64N(5)}
	case r < 99:
		return slotOp{kind: opReset}
	default:
		return slotOp{kind: opRelease}
	}
}

// TestSlotAllocProperties checks SlotAlloc against the brute-force oracle
// on random ready streams: extends, gaps within and beyond the window,
// requests inside and below the trailing run, lookbacks past the window and
// its clamp edge, and Reset/Release between rounds, which must leave the
// ring all zero.
func TestSlotAllocProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	for round := 0; round < 40; round++ {
		h := &slotHarness{t: t, o: newSlotOracle(), base: rng.Int64N(1<<20) - 1000}
		for i := 0; i < 3000; i++ {
			h.step(randomSlotOp(rng))
		}
		h.step(slotOp{kind: opRelease})
	}
}

// FuzzSlotAlloc runs the oracle on streams decoded from the input, three
// bytes an operation: the kind, then a 16-bit magnitude. Streams stop at
// maxFuzzOps operations, which keeps the brute-force oracle quick.
func FuzzSlotAlloc(f *testing.F) {
	const maxFuzzOps = 2000
	f.Add([]byte{opExtend, 0, 0, opGap, 5, 0, opBelow, 3, 0, opBelow, 0, 0})
	f.Add([]byte{opGap, 0xff, 0xff, opBelow, 0xff, 0x7f, opClamp, 0, 0, opClamp, 4, 0, opReset, 0, 0, opBelow, 1, 0})
	f.Add([]byte{opBelow, 9, 0, opBelow, 9, 0, opGap, 1, 0, opBelow, 2, 0, opRelease, 0, 0, opExtend, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &slotHarness{t: t, o: newSlotOracle(), base: 1000}
		data = data[:min(len(data), 3*maxFuzzOps)]
		for ; len(data) >= 3; data = data[3:] {
			op := slotOp{kind: int(data[0]) % numSlotOps, n: int64(binary.LittleEndian.Uint16(data[1:]))}
			switch op.kind {
			case opGap:
				op.n *= 4 // up to 4W
			case opBelow:
				op.n *= 2 // up to 2W
			case opClamp:
				op.n %= 5
			}
			h.step(op)
		}
		h.step(slotOp{kind: opRelease})
	})
}

// slotBenchStream is a fixed mixed ready stream for BenchmarkSlotAlloc:
// each request is an extend, a gap, inside the run, below the run or
// clamped, in proportions like a memory bank's.
func slotBenchStream() []int64 {
	rng := rand.New(rand.NewPCG(42, 1))
	var a SlotAlloc
	newest := int64(0)
	stream := make([]int64, 1024)
	for i := range stream {
		var ready int64
		switch r := rng.IntN(100); {
		case r < 50:
			ready = newest + 1
		case r < 65:
			ready = newest + 2 + rng.Int64N(64)
		case r < 80:
			ready = newest - rng.Int64N(8)
		case r < 95:
			ready = newest - 8 - rng.Int64N(4096)
		default:
			ready = newest - slotWindow - 1 - rng.Int64N(1000)
		}
		stream[i] = ready
		newest = max(newest, a.Alloc(ready))
	}
	return stream
}

var slotSink int64

// BenchmarkSlotAlloc replays the mixed stream on one allocator, Reset
// between replays; an op is one 1024-request replay. The ring is taken once
// and kept, so steady state must not allocate: the benchmark fails if it
// does.
func BenchmarkSlotAlloc(b *testing.B) {
	stream := slotBenchStream()
	var a SlotAlloc
	replay := func() {
		a.Reset()
		for _, r := range stream {
			slotSink += a.Alloc(r)
		}
	}
	if n := testing.AllocsPerRun(10, replay); n != 0 {
		b.Fatalf("SlotAlloc allocates %v times per replay, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
}
