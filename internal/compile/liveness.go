package compile

import (
	"math/bits"

	"vgiw/internal/kir"
)

// RegSet is a set of registers, one bit per register of the kernel.
type RegSet []uint64

// Has reports whether r is in the set.
func (s RegSet) Has(r kir.Reg) bool { return s[r>>6]&(1<<(r&63)) != 0 }

func (s RegSet) add(r kir.Reg) { s[r>>6] |= 1 << (r & 63) }

// both lists the registers in a and in b, in ascending order.
func both(a, b RegSet) []kir.Reg {
	var rs []kir.Reg
	for i, w := range a {
		for w &= b[i]; w != 0; w &= w - 1 {
			rs = append(rs, kir.Reg(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return rs
}

// BlockFlow summarizes one block's register dataflow.
type BlockFlow struct {
	// UpwardUse holds registers read before any definition in the block
	// (they must arrive from a predecessor).
	UpwardUse RegSet
	// Def holds registers defined anywhere in the block.
	Def RegSet
	// LiveIn / LiveOut are the fixed-point liveness sets.
	LiveIn, LiveOut RegSet
}

// Liveness computes classic backward liveness over the kernel CFG. The
// terminator's condition register counts as a use at the end of its block.
func Liveness(k *kir.Kernel) []BlockFlow {
	n := len(k.Blocks)
	words := (k.NumRegs + 63) / 64
	sets := make(RegSet, 4*n*words)
	next := func() RegSet {
		s := sets[:words:words]
		sets = sets[words:]
		return s
	}
	flows := make([]BlockFlow, n)
	for bi, b := range k.Blocks {
		f := BlockFlow{UpwardUse: next(), Def: next(), LiveIn: next(), LiveOut: next()}
		for _, in := range b.Instrs {
			for i := 0; i < in.Op.NumSrc(); i++ {
				if r := in.Src[i]; !f.Def.Has(r) {
					f.UpwardUse.add(r)
				}
			}
			if in.Op.HasDst() {
				f.Def.add(in.Dst)
			}
		}
		if b.Term.Kind == kir.TermBranch {
			if r := b.Term.Cond; !f.Def.Has(r) {
				f.UpwardUse.add(r)
			}
		}
		flows[bi] = f
	}

	// LiveOut is the union of the successors' LiveIn, and LiveIn is
	// UpwardUse plus whatever passes through undefined. Both only grow, so
	// the sweep reaches the least fixed point.
	changed := true
	for changed {
		changed = false
		for bi := n - 1; bi >= 0; bi-- {
			f := &flows[bi]
			for _, s := range k.Blocks[bi].Term.Succs() {
				for i, w := range flows[s].LiveIn {
					if w&^f.LiveOut[i] != 0 {
						f.LiveOut[i] |= w
						changed = true
					}
				}
			}
			for i, w := range f.UpwardUse {
				if w |= f.LiveOut[i] &^ f.Def[i]; w&^f.LiveIn[i] != 0 {
					f.LiveIn[i] |= w
					changed = true
				}
			}
		}
	}
	return flows
}

// LiveValues is the compiler's live-value allocation (§3.1): every register
// that crosses a basic-block boundary gets a live-value ID, and each block
// records which live values it must load from and store to the LVC.
type LiveValues struct {
	// IDOf[r] is register r's live-value ID, or -1 for a register that
	// never crosses a block boundary.
	IDOf []int
	// NumIDs is the number of allocated live-value IDs.
	NumIDs int
	// Loads[b] lists registers block b must fetch from the LVC (sorted).
	Loads [][]kir.Reg
	// Stores[b] lists registers block b must write to the LVC: registers
	// the block defines that are live-out (sorted).
	Stores [][]kir.Reg
}

// AllocateLiveValues assigns live-value IDs. The allocation is one ID per
// crossing register, which mirrors the paper's "similar to traditional
// register allocation" description without the reuse optimization (IDs index
// a memory-resident matrix, so reuse only affects footprint, not traffic).
func AllocateLiveValues(k *kir.Kernel) *LiveValues {
	flows := Liveness(k)
	lv := &LiveValues{
		IDOf:   make([]int, k.NumRegs),
		Loads:  make([][]kir.Reg, len(k.Blocks)),
		Stores: make([][]kir.Reg, len(k.Blocks)),
	}
	for r := range lv.IDOf {
		lv.IDOf[r] = -1
	}
	assign := func(rs []kir.Reg) {
		for _, r := range rs {
			if lv.IDOf[r] < 0 {
				lv.IDOf[r] = lv.NumIDs
				lv.NumIDs++
			}
		}
	}
	for bi := range k.Blocks {
		f := &flows[bi]
		// Loads: upward-exposed uses that are live-in. Stores: definitions
		// that are live-out. Both come out in register order, so the IDs,
		// assigned in block order and then register order, are a pure
		// function of the kernel and repeated compiles agree bit-for-bit.
		lv.Loads[bi] = both(f.UpwardUse, f.LiveIn)
		lv.Stores[bi] = both(f.Def, f.LiveOut)
		assign(lv.Loads[bi])
		assign(lv.Stores[bi])
	}
	return lv
}

func sortRegs(rs []kir.Reg) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
