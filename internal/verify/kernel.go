package verify

import (
	"fmt"

	"vgiw/internal/kir"
)

// checker accumulates diagnostics for one kernel.
type checker struct {
	pass string
	k    *kir.Kernel
	ds   []Diagnostic
}

func (c *checker) addf(block, op int, pos kir.Pos, format string, args ...any) {
	c.ds = append(c.ds, Diagnostic{
		Pass:   c.pass,
		Kernel: c.k.Name,
		Block:  block,
		Op:     op,
		Pos:    pos,
		Msg:    fmt.Sprintf(format, args...),
	})
}

// defUse checks that every register use is definitely assigned on all paths
// from the entry, by forward must-reach dataflow over the CFG: a register is
// available at block entry only if every predecessor provides it. Loops are
// handled by starting non-entry blocks from the optimistic full set and
// iterating to a fixpoint; unreachable blocks keep the full set and are left
// to the reachability check.
func (c *checker) defUse() {
	k := c.k
	n := len(k.Blocks)
	words := (k.NumRegs + 63) / 64

	defs := make([]bitset, n) // registers defined anywhere in block b
	for bi, b := range k.Blocks {
		defs[bi] = newBitset(words)
		for _, in := range b.Instrs {
			if in.Op.HasDst() {
				defs[bi].set(in.Dst)
			}
		}
	}

	preds := make([][]int, n)
	for bi, b := range k.Blocks {
		for _, s := range b.Term.Succs() {
			preds[s] = append(preds[s], bi)
		}
	}

	in := make([]bitset, n)
	in[0] = newBitset(words)
	for bi := 1; bi < n; bi++ {
		in[bi] = newBitset(words).fill()
	}

	changed := true
	for changed {
		changed = false
		for bi := 1; bi < n; bi++ {
			if len(preds[bi]) == 0 {
				continue // unreachable; reachability reports it
			}
			next := newBitset(words).fill()
			for _, p := range preds[bi] {
				out := in[p].clone()
				out.or(defs[p])
				next.and(out)
			}
			if !next.equal(in[bi]) {
				in[bi] = next
				changed = true
			}
		}
	}

	for bi, b := range k.Blocks {
		have := in[bi].clone()
		for ii, instr := range b.Instrs {
			for s := 0; s < instr.Op.NumSrc(); s++ {
				if r := instr.Src[s]; !have.has(r) {
					c.addf(bi, ii, instr.Pos, "r%d used before definition", r)
				}
			}
			if instr.Op.HasDst() {
				have.set(instr.Dst)
			}
		}
		if b.Term.Kind == kir.TermBranch && !have.has(b.Term.Cond) {
			c.addf(bi, -1, b.Term.Pos, "branch condition r%d used before definition", b.Term.Cond)
		}
	}
}

// reachability reports blocks no path from the entry reaches.
func (c *checker) reachability() {
	for bi, ok := range c.reachable() {
		if !ok {
			c.addf(bi, -1, c.k.Blocks[bi].Pos, "block %q unreachable from entry", c.k.Blocks[bi].Label)
		}
	}
}

func (c *checker) reachable() []bool {
	seen := make([]bool, len(c.k.Blocks))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.k.Blocks[b].Term.Succs() {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// scheduleOrder checks the paper's §3.1 block-numbering rule: block IDs are
// the schedule order, which compile.ScheduleBlocks defines as reverse
// postorder with the then-branch visited first. The verifier recomputes that
// order independently and requires the identity mapping, which also implies
// every forward edge goes to a larger ID and only loop back edges go to
// smaller-or-equal IDs.
func (c *checker) scheduleOrder() {
	k := c.k
	seen := make([]bool, len(k.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
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
	for want, got := range post {
		if got != want {
			c.addf(got, -1, k.Blocks[got].Pos,
				"block %q has ID %d but schedule (reverse-postorder) position %d",
				k.Blocks[got].Label, got, want)
		}
	}
}

// bitset is a fixed-width register set.
type bitset []uint64

func newBitset(words int) bitset { return make(bitset, words) }

func (b bitset) has(r kir.Reg) bool {
	if r < 0 || int(r) >= len(b)*64 {
		return false
	}
	return b[r/64]&(1<<(uint(r)%64)) != 0
}

func (b bitset) set(r kir.Reg) {
	if r >= 0 && int(r) < len(b)*64 {
		b[r/64] |= 1 << (uint(r) % 64)
	}
}

func (b bitset) fill() bitset {
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}

func (b bitset) clone() bitset { return append(bitset(nil), b...) }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) and(o bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
