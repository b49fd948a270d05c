package compile

import (
	"fmt"

	"vgiw/internal/kir"
	"vgiw/internal/verify"
)

// CompileFitted compiles the kernel, splitting any basic block whose
// dataflow graph does not satisfy the fits predicate (e.g., it needs more
// units of some class than the fabric provides). Splitting a block turns
// values that cross the new boundary into live-value traffic — the honest
// cost of running big blocks on a finite fabric, which the paper's compiler
// pays the same way when partitioning large kernels.
//
// The split point starts at the instruction midpoint and the pass iterates
// until every block fits or no further split is possible. A round builds
// graphs only up to the first block that does not fit, the one it splits;
// the later graphs and the post-dominators are built once every block fits.
func CompileFitted(k *kir.Kernel, fits func(*BlockDFG) bool, opts ...Option) (*CompiledKernel, error) {
	o := buildOptions(opts)
	const maxRounds = 256
	for round := 0; ; round++ {
		ck, oversized, err := o.compile(k, fits)
		if err != nil || ck != nil {
			return ck, err
		}
		if round >= maxRounds {
			return nil, fmt.Errorf("compile: kernel %s still has oversized blocks after %d splits", k.Name, maxRounds)
		}
		if err := splitBlock(k, oversized); err != nil {
			return nil, err
		}
		if err := o.checkKernel("split", k, verify.Source); err != nil {
			return nil, err
		}
	}
}

// splitBlock divides block bi at its instruction midpoint: the first half
// keeps the original label and jumps into a new continuation block holding
// the second half and the original terminator.
func splitBlock(k *kir.Kernel, bi int) error {
	b := k.Blocks[bi]
	n := len(b.Instrs)
	if n < 2 {
		return fmt.Errorf("compile: kernel %s block %d (%s) cannot be split further", k.Name, bi, b.Label)
	}
	m := n / 2
	cont := &kir.Block{
		Label:  b.Label + ".cont",
		Instrs: b.Instrs[m:],
		Term:   b.Term,
	}
	b.Instrs = b.Instrs[:m]

	// Insert cont right after b and shift all terminator targets.
	at := bi + 1
	k.Blocks = append(k.Blocks, nil)
	copy(k.Blocks[at+1:], k.Blocks[at:])
	k.Blocks[at] = cont
	for _, blk := range k.Blocks {
		if blk == b {
			continue // b's terminator is replaced below
		}
		t := &blk.Term
		switch t.Kind {
		case kir.TermJump:
			if t.Then >= at {
				t.Then++
			}
		case kir.TermBranch:
			if t.Then >= at {
				t.Then++
			}
			if t.Else >= at {
				t.Else++
			}
		}
	}
	b.Term = kir.Terminator{Kind: kir.TermJump, Then: at}
	return k.Validate()
}
