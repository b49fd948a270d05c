package kir

import "fmt"

// Launch describes one kernel invocation: a CUDA-style 2-D grid of 2-D
// thread blocks (CTAs) plus scalar parameters. Threads are identified by a
// global linear thread ID; geometry opcodes recover the per-axis coordinates.
type Launch struct {
	GridX, GridY   int // CTAs per axis
	BlockX, BlockY int // threads per CTA per axis
	Params         []uint32
}

// Launch1D is the common case: gridX CTAs of blockX threads.
func Launch1D(gridX, blockX int, params ...uint32) Launch {
	return Launch{GridX: gridX, GridY: 1, BlockX: blockX, BlockY: 1, Params: params}
}

// Threads reports the total number of threads in the launch.
func (l Launch) Threads() int { return l.GridX * l.GridY * l.BlockX * l.BlockY }

// CTAs reports the number of thread blocks in the launch.
func (l Launch) CTAs() int { return l.GridX * l.GridY }

// CTASize reports the number of threads per CTA.
func (l Launch) CTASize() int { return l.BlockX * l.BlockY }

// Geometry resolves a geometry opcode for the given global linear thread ID.
// Thread IDs are laid out CTA-major: consecutive IDs fill a CTA (x fastest),
// then move to the next CTA (grid x fastest).
func (l Launch) Geometry(op Op, tid int) uint32 {
	if op == OpTID {
		// The common opcode is the identity; skip the CTA div/mod entirely
		// (integer division is the most expensive thing in this function,
		// and TID is on the engine's per-thread hot path).
		return uint32(tid)
	}
	ctaSize := l.CTASize()
	cta := tid / ctaSize
	local := tid % ctaSize
	switch op {
	case OpTIDX:
		return uint32(local % l.BlockX)
	case OpTIDY:
		return uint32(local / l.BlockX)
	case OpCTAX:
		return uint32(cta % l.GridX)
	case OpCTAY:
		return uint32(cta / l.GridX)
	case OpNTIDX:
		return uint32(l.BlockX)
	case OpNTIDY:
		return uint32(l.BlockY)
	case OpNCTAX:
		return uint32(l.GridX)
	case OpNCTAY:
		return uint32(l.GridY)
	}
	panic(fmt.Sprintf("kir: %v is not a geometry opcode", op))
}

// CTAOf reports the CTA index of a global thread ID.
func (l Launch) CTAOf(tid int) int { return tid / l.CTASize() }
