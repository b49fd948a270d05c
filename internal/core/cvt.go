// Package core implements the VGIW processor of §3: the basic block
// scheduler (BBS), the control vector table (CVT), the live value cache
// (LVC), and the orchestration that streams dynamically coalesced thread
// vectors through the MT-CGRF execution engine.
package core

import "math/bits"

// CVT is the control vector table (§3.3): one bit vector per basic block,
// indexed by (tile-relative) thread ID. A set bit means the thread must
// execute that block next. It delivers 64-bit words with a read-and-reset
// policy; reads and writes are counted for the energy model. The paper's
// CVT is banked, but this model does not simulate bank contention: a CVT
// access costs no cycles here.
type CVT struct {
	vecs [][]uint64 // [block][word]

	Reads  uint64 // 64-bit word reads (read-and-reset scans)
	Writes uint64 // 64-bit word writes (batch packet ORs)
}

// NewCVT builds a table for numBlocks blocks and a tile of tileSize threads.
func NewCVT(numBlocks, tileSize int) *CVT {
	words := (tileSize + 63) / 64
	vecs := make([][]uint64, numBlocks)
	for i := range vecs {
		vecs[i] = make([]uint64, words)
	}
	return &CVT{vecs: vecs}
}

// SetAll marks every thread in [0, n) as pending for the given block (used
// to launch a tile into the entry block).
func (c *CVT) SetAll(block, n int) {
	v := c.vecs[block]
	for i := 0; i < n; i++ {
		v[i/64] |= 1 << (i % 64)
	}
	c.Writes += uint64((n + 63) / 64)
}

// Register ORs a thread into a block's vector, counting one word write per
// touched word. The BBS receives <base, bitmap> batch packets from the
// terminator CVUs; threads completing out of order still coalesce into the
// same word, so the write count tracks touched words, not threads.
//
//vgiw:hotpath
func (c *CVT) Register(block, thread int) {
	w := &c.vecs[block][thread/64]
	if *w&(1<<(thread%64)) == 0 {
		*w |= 1 << (thread % 64)
	}
	c.Writes++
}

// RegisterBatch ORs a whole batch bitmap at the given word index.
//
//vgiw:hotpath
func (c *CVT) RegisterBatch(block, wordIdx int, bitmap uint64) {
	c.vecs[block][wordIdx] |= bitmap
	c.Writes++
}

// Drain reads-and-resets a block's vector, appending the pending
// tile-relative thread IDs to out in ascending order and returning the
// extended slice, so callers can reuse one buffer across drains. Every
// scanned non-empty word counts as one read (empty words are skipped by the
// per-word valid bits).
func (c *CVT) Drain(block int, out []int) []int {
	v := c.vecs[block]
	for wi, w := range v {
		if w == 0 {
			continue
		}
		c.Reads++
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, base+b)
			w &^= 1 << b
		}
		v[wi] = 0
	}
	return out
}

// Pending reports whether the block has any waiting threads.
func (c *CVT) Pending(block int) bool {
	for _, w := range c.vecs[block] {
		if w != 0 {
			return true
		}
	}
	return false
}

// NextBlock returns the smallest block ID with a non-empty vector, or -1.
// This is the paper's hardware scheduling rule (§3.1): block IDs follow the
// compile-time schedule, so picking the smallest pending ID preserves
// control dependencies and makes loops re-execute before their epilogues.
func (c *CVT) NextBlock() int {
	for b := range c.vecs {
		if c.Pending(b) {
			return b
		}
	}
	return -1
}
