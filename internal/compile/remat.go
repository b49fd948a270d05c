package compile

import "vgiw/internal/kir"

// Rematerialize rewrites cross-block uses of cheaply recomputable values —
// constants, launch parameters, and thread-geometry coordinates — into fresh
// per-block definitions. On the VGIW machine these values are free in every
// block anyway (constants and parameters live in configuration registers;
// the initiator CVU delivers the thread coordinates, §3.5), so carrying them
// through the live value cache would charge phantom LVC traffic and waste
// LVU units. The paper's compiler performs the same rematerialization
// implicitly by generating per-block configurations from SSA form.
//
// A register qualifies when it has exactly one definition kernel-wide and
// that definition is a zero-input opcode. The pass runs before liveness, so
// rematerialized registers simply stop being live across blocks.
func Rematerialize(k *kir.Kernel) {
	// Count definitions and remember the single defining instruction. Fresh
	// registers only appear in blocks already rewritten, so the tables
	// cover every register a later block reads.
	n := k.NumRegs
	defCount := make([]int, n)
	defInstr := make([]kir.Instr, n)
	defBlock := make([]int, n)
	for bi, b := range k.Blocks {
		for _, in := range b.Instrs {
			if !in.Op.HasDst() {
				continue
			}
			defCount[in.Dst]++
			defInstr[in.Dst] = in
			defBlock[in.Dst] = bi
		}
	}
	remat := func(r kir.Reg) bool {
		op := defInstr[r].Op
		return defCount[r] == 1 && (op == kir.OpConst || op == kir.OpParam || op.IsGeometry())
	}

	// needed[r] holds the stamp bi+1 while block bi rewrites r, so no block
	// clears or allocates the per-block tables.
	needed := make([]int, n)
	replace := make([]kir.Reg, n)
	var order []kir.Reg
	for bi, b := range k.Blocks {
		stamp := bi + 1
		// Find upward-exposed rematerializable uses. A qualifying register
		// has one definition, so one defined in this block is local
		// (regardless of position, since builders emit defs before uses).
		order = order[:0]
		noteUse := func(r kir.Reg) {
			if defBlock[r] != bi && needed[r] != stamp && remat(r) {
				needed[r] = stamp
				order = append(order, r)
			}
		}
		for _, in := range b.Instrs {
			for i := 0; i < in.Op.NumSrc(); i++ {
				noteUse(in.Src[i])
			}
		}
		if b.Term.Kind == kir.TermBranch {
			noteUse(b.Term.Cond)
		}
		if len(order) == 0 {
			continue
		}
		// Prepend fresh definitions and rewrite the block's uses. Fresh
		// register numbers are handed out in sorted source-register order,
		// so the numbering is a pure function of the kernel.
		sortRegs(order)
		rewritten := make([]kir.Instr, 0, len(order)+len(b.Instrs))
		for _, r := range order {
			in := defInstr[r]
			in.Dst = kir.Reg(k.NumRegs)
			k.NumRegs++
			rewritten = append(rewritten, in)
			replace[r] = in.Dst
		}
		rewrite := func(r kir.Reg) kir.Reg {
			if needed[r] == stamp {
				return replace[r]
			}
			return r
		}
		for _, in := range b.Instrs {
			for i := 0; i < in.Op.NumSrc(); i++ {
				in.Src[i] = rewrite(in.Src[i])
			}
			rewritten = append(rewritten, in)
		}
		b.Instrs = rewritten
		if b.Term.Kind == kir.TermBranch {
			b.Term.Cond = rewrite(b.Term.Cond)
		}
	}
}
