// Package compile implements the VGIW compiler passes of §3.1: control-flow
// analysis, block scheduling (block-ID assignment), liveness and live-value
// allocation, per-block dataflow-graph construction (including split/join
// insertion, §3.5), and if-conversion for the SGMF baseline.
package compile

import "vgiw/internal/kir"

// Preds computes the predecessor lists of every block.
func Preds(k *kir.Kernel) [][]int {
	preds := make([][]int, len(k.Blocks))
	for bi, b := range k.Blocks {
		for _, s := range b.Term.Succs() {
			preds[s] = append(preds[s], bi)
		}
	}
	return preds
}

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder of a depth-first walk. The entry block is always first.
func ReversePostorder(k *kir.Kernel) []int {
	seen := make([]bool, len(k.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		// Visit successors in reverse so the reverse postorder lists the
		// then-branch before the else-branch (the paper's Figure 2 block
		// numbering: BB2 is scheduled before BB3).
		succs := k.Blocks[b].Term.Succs()
		for i := len(succs) - 1; i >= 0; i-- {
			if s := succs[i]; !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Reachable reports which blocks are reachable from the entry.
func Reachable(k *kir.Kernel) []bool {
	seen := make([]bool, len(k.Blocks))
	for _, b := range ReversePostorder(k) {
		seen[b] = true
	}
	return seen
}

// ImmPostDoms computes the immediate post-dominator of every block over a CFG
// augmented with a single virtual exit that every returning block flows to.
// A block whose immediate post-dominator is the virtual exit gets -1, as do
// unreachable blocks. The SIMT baseline uses this to find warp reconvergence
// points after a divergent branch.
//
// The implementation computes full post-dominator sets by iterative dataflow
// (kernels here have at most a few dozen blocks) and then extracts the
// immediate post-dominator as the smallest strict post-dominator.
func ImmPostDoms(k *kir.Kernel) []int {
	n := len(k.Blocks)
	reach := Reachable(k)

	// pdom[b] = set of blocks that post-dominate b (excluding the virtual
	// exit, which post-dominates everything). Initialize reachable blocks
	// to the full set, ret blocks to {b}.
	full := make([]bool, n)
	for i := range full {
		full[i] = true
	}
	pdom := make([][]bool, n)
	for b := 0; b < n; b++ {
		if !reach[b] {
			continue
		}
		if k.Blocks[b].Term.Kind == kir.TermRet {
			pdom[b] = make([]bool, n)
			pdom[b][b] = true
		} else {
			pdom[b] = append([]bool(nil), full...)
		}
	}

	changed := true
	for changed {
		changed = false
		for b := 0; b < n; b++ {
			if !reach[b] || k.Blocks[b].Term.Kind == kir.TermRet {
				continue
			}
			next := append([]bool(nil), full...)
			for _, s := range k.Blocks[b].Term.Succs() {
				for i := 0; i < n; i++ {
					next[i] = next[i] && pdom[s][i]
				}
			}
			next[b] = true
			for i := 0; i < n; i++ {
				if next[i] != pdom[b][i] {
					pdom[b] = next
					changed = true
					break
				}
			}
		}
	}

	// The strict post-dominators of b form a chain ordered by their own
	// post-dominator sets; the immediate post-dominator is the nearest one,
	// i.e. the strict post-dominator with the *largest* set.
	out := make([]int, n)
	for b := 0; b < n; b++ {
		out[b] = -1
		if !reach[b] {
			continue
		}
		best, bestSize := -1, -1
		for c := 0; c < n; c++ {
			if c == b || !pdom[b][c] {
				continue
			}
			size := 0
			for i := 0; i < n; i++ {
				if pdom[c][i] {
					size++
				}
			}
			if size > bestSize {
				best, bestSize = c, size
			}
		}
		out[b] = best
	}
	return out
}

// ScheduleBlocks renumbers the kernel's blocks in reverse postorder so that
// block IDs follow the paper's scheduling rule (§3.1): the entry block is ID
// 0, forward control flow goes to larger IDs, and loop back edges go to
// smaller-or-equal IDs. The runtime scheduler (BBS) then simply picks the
// smallest block ID with a non-empty thread vector.
//
// Unreachable blocks are dropped. The kernel is validated first, since the
// traversal indexes blocks by successor ID; a valid kernel stays valid,
// because the renumbering is a bijection on the reachable blocks. The kernel
// is modified in place and also returned for convenience.
func ScheduleBlocks(k *kir.Kernel) (*kir.Kernel, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	order := ReversePostorder(k)
	remap := make([]int, len(k.Blocks))
	for i := range remap {
		remap[i] = -1
	}
	for newID, oldID := range order {
		remap[oldID] = newID
	}
	blocks := make([]*kir.Block, len(order))
	for newID, oldID := range order {
		b := k.Blocks[oldID]
		t := &b.Term
		switch t.Kind {
		case kir.TermJump:
			t.Then = remap[t.Then]
		case kir.TermBranch:
			t.Then = remap[t.Then]
			t.Else = remap[t.Else]
		}
		blocks[newID] = b
	}
	k.Blocks = blocks
	return k, nil
}
