package kir

import (
	"fmt"
	"strings"
)

// Reg identifies a 32-bit virtual register. Registers are kernel-scoped:
// a register written in one block may be read in another; the compiler turns
// such cross-block uses into live-value traffic.
type Reg int32

// NoReg marks an absent operand.
const NoReg Reg = -1

// Instr is a single (non-terminator) kernel instruction.
type Instr struct {
	Op  Op
	Dst Reg    // NoReg when Op.HasDst() is false
	Src [3]Reg // unused slots hold NoReg
	Imm int32  // constant, parameter index, or address offset (in words)
	Pos Pos    // kasm source position; zero for synthesized instructions
}

func (in Instr) String() string {
	var b strings.Builder
	if in.Op.HasDst() {
		fmt.Fprintf(&b, "r%d = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	for i := 0; i < in.Op.NumSrc(); i++ {
		fmt.Fprintf(&b, " r%d", in.Src[i])
	}
	switch in.Op {
	case OpConst, OpParam:
		fmt.Fprintf(&b, " %d", in.Imm)
	case OpLoad, OpStore, OpLoadSh, OpStoreSh:
		if in.Imm != 0 {
			fmt.Fprintf(&b, " +%d", in.Imm)
		}
	}
	return b.String()
}

// TermKind discriminates block terminators.
type TermKind uint8

const (
	TermJump   TermKind = iota // unconditional jump to Then
	TermBranch                 // if Cond != 0 goto Then else goto Else
	TermRet                    // thread exits the kernel
)

// Terminator ends a basic block and transfers control. On the VGIW machine it
// is executed by the block's terminator CVU, which registers the thread in
// the control vector table entry of the successor block (§3.5).
type Terminator struct {
	Kind TermKind
	Cond Reg // used by TermBranch
	Then int // successor block index
	Else int // successor block index (TermBranch only)
	Pos  Pos // kasm source position; zero for synthesized terminators
}

func (t Terminator) String() string {
	switch t.Kind {
	case TermJump:
		return fmt.Sprintf("jmp @%d", t.Then)
	case TermBranch:
		return fmt.Sprintf("br r%d @%d @%d", t.Cond, t.Then, t.Else)
	case TermRet:
		return "ret"
	}
	return fmt.Sprintf("Terminator(%d)", t.Kind)
}

// Succs returns the successor block indices of the terminator.
func (t Terminator) Succs() []int {
	switch t.Kind {
	case TermJump:
		return []int{t.Then}
	case TermBranch:
		if t.Then == t.Else {
			return []int{t.Then}
		}
		return []int{t.Then, t.Else}
	}
	return nil
}

// Block is a basic block. Its index in Kernel.Blocks is its block ID; block
// IDs follow the compiler's scheduling order (§3.1): the entry block has the
// reserved ID 0, and a successor with a smaller ID than its source indicates
// a loop back edge.
type Block struct {
	Label  string // human-readable name ("entry", "loop.body", ...)
	Instrs []Instr
	Term   Terminator
	Pos    Pos // kasm source position of the block header; zero if synthesized

	// Barrier marks a __syncthreads boundary: every thread of a CTA must
	// have completed all predecessor blocks before any thread executes
	// this block. The VGIW machine satisfies barriers for free because the
	// entire thread vector drains between blocks; the SIMT baseline
	// synchronizes the warps of each CTA.
	Barrier bool
}

// Kernel is a compiled-from-source compute kernel: a CFG over Blocks with
// Blocks[0] as the unique entry block.
type Kernel struct {
	Name      string
	Blocks    []*Block
	NumRegs   int // registers are numbered [0, NumRegs)
	NumParams int // scalar launch parameters
	SharedWds int // per-CTA scratchpad size in 32-bit words
}

// NumInstrs reports the static instruction count (terminators excluded).
func (k *Kernel) NumInstrs() int {
	n := 0
	for _, b := range k.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Finding is one kernel rule a kernel breaks.
type Finding struct {
	Block int // block index, or -1 for a kernel-wide rule
	Instr int // instruction index within Block, or -1 for the block itself or its terminator
	Pos   Pos // source position of the offending block, instruction or terminator
	Msg   string
}

// Check reports every structural rule k breaks, in block order: a kernel
// has an entry block without a barrier, no negative register, parameter or
// shared-memory declaration, well-formed instructions whose registers and
// parameters are in range, and terminators whose condition and successors
// are in range. A valid kernel reports nothing and allocates nothing. Every
// front end and machine enforces these rules through Validate.
func (k *Kernel) Check(report func(Finding)) {
	if len(k.Blocks) == 0 {
		report(Finding{Block: -1, Instr: -1, Msg: "no blocks"})
		return
	}
	if k.NumRegs < 0 || k.NumParams < 0 || k.SharedWds < 0 {
		report(Finding{Block: -1, Instr: -1, Msg: fmt.Sprintf(
			"negative resource declaration: regs=%d params=%d shared=%d", k.NumRegs, k.NumParams, k.SharedWds)})
	}
	if k.Blocks[0].Barrier {
		report(Finding{Block: 0, Instr: -1, Pos: k.Blocks[0].Pos, Msg: "entry block cannot carry a barrier"})
	}
	for bi, b := range k.Blocks {
		for ii := range b.Instrs {
			k.checkInstr(bi, ii, report)
		}
		k.checkTerm(bi, report)
	}
}

func (k *Kernel) regOK(r Reg) bool { return r >= 0 && int(r) < k.NumRegs }

func (k *Kernel) checkInstr(bi, ii int, report func(Finding)) {
	in := &k.Blocks[bi].Instrs[ii]
	bad := func(format string, args ...any) {
		report(Finding{Block: bi, Instr: ii, Pos: in.Pos, Msg: fmt.Sprintf(format, args...)})
	}
	if !in.Op.Valid() {
		bad("invalid opcode %v", in.Op)
		return
	}
	if in.Op.HasDst() {
		if !k.regOK(in.Dst) {
			bad("dst register r%d out of range [0,%d)", in.Dst, k.NumRegs)
		}
	} else if in.Dst != NoReg {
		bad("%v must not define a destination", in.Op)
	}
	for s := 0; s < in.Op.NumSrc(); s++ {
		if !k.regOK(in.Src[s]) {
			bad("src%d register r%d out of range [0,%d)", s, in.Src[s], k.NumRegs)
		}
	}
	for s := in.Op.NumSrc(); s < len(in.Src); s++ {
		if in.Src[s] != NoReg {
			bad("%v takes %d sources; src%d set", in.Op, in.Op.NumSrc(), s)
		}
	}
	if in.Op == OpParam && (in.Imm < 0 || int(in.Imm) >= k.NumParams) {
		bad("parameter %d out of range [0,%d)", in.Imm, k.NumParams)
	}
}

func (k *Kernel) checkTerm(bi int, report func(Finding)) {
	t := &k.Blocks[bi].Term
	bad := func(format string, args ...any) {
		report(Finding{Block: bi, Instr: -1, Pos: t.Pos, Msg: fmt.Sprintf(format, args...)})
	}
	target := func(idx int) {
		if idx < 0 || idx >= len(k.Blocks) {
			bad("successor block %d out of range [0,%d)", idx, len(k.Blocks))
		}
	}
	switch t.Kind {
	case TermJump:
		target(t.Then)
	case TermBranch:
		if !k.regOK(t.Cond) {
			bad("branch condition r%d out of range [0,%d)", t.Cond, k.NumRegs)
		}
		target(t.Then)
		target(t.Else)
	case TermRet:
	default:
		bad("invalid terminator kind %d", t.Kind)
	}
}

// Validate returns the first rule Check finds as an error, or nil for a
// valid kernel.
func (k *Kernel) Validate() error {
	var err error
	k.Check(func(f Finding) {
		if err == nil {
			err = k.findingError(f)
		}
	})
	return err
}

// findingError renders f with its kernel, block and source position.
func (k *Kernel) findingError(f Finding) error {
	where := ""
	if f.Block >= 0 {
		where = fmt.Sprintf(" block %d (%s)", f.Block, k.Blocks[f.Block].Label)
		if f.Instr >= 0 {
			where += fmt.Sprintf(" instr %d", f.Instr)
		}
		where += ":"
	}
	if !f.Pos.IsZero() {
		return fmt.Errorf("kernel %s:%s %s (%s)", k.Name, where, f.Msg, f.Pos)
	}
	return fmt.Errorf("kernel %s:%s %s", k.Name, where, f.Msg)
}

// ValidateLaunch checks that l can launch k: every grid and block dimension
// is positive and l supplies exactly the parameters k declares. The
// interpreter and every machine enforce it before they allocate anything.
func (k *Kernel) ValidateLaunch(l Launch) error {
	if l.GridX <= 0 || l.GridY <= 0 || l.BlockX <= 0 || l.BlockY <= 0 {
		return fmt.Errorf("kernel %s: launch dimensions must be positive: grid %dx%d block %dx%d",
			k.Name, l.GridX, l.GridY, l.BlockX, l.BlockY)
	}
	if len(l.Params) != k.NumParams {
		return fmt.Errorf("kernel %s: declares %d params, launch provides %d", k.Name, k.NumParams, len(l.Params))
	}
	return nil
}

// String renders the kernel in kasm-compatible form.
func (k *Kernel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s params=%d shared=%d\n", k.Name, k.NumParams, k.SharedWds)
	for bi, blk := range k.Blocks {
		fmt.Fprintf(&b, "@%d %s:", bi, blk.Label)
		if blk.Barrier {
			b.WriteString(" barrier")
		}
		b.WriteByte('\n')
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", in.String())
		}
		fmt.Fprintf(&b, "  %s\n", blk.Term.String())
	}
	return b.String()
}

// HasLoops reports whether any terminator targets a block with an ID not
// larger than its own (the paper's loop manifestation rule, §3.1). It assumes
// blocks are in scheduling order, which compile.ScheduleBlocks guarantees.
func (k *Kernel) HasLoops() bool {
	for bi, b := range k.Blocks {
		for _, s := range b.Term.Succs() {
			if s <= bi {
				return true
			}
		}
	}
	return false
}

// Clone deep-copies the kernel (blocks, instruction slices, terminators),
// so compiler passes can speculate on a copy and discard it.
func (k *Kernel) Clone() *Kernel {
	nk := &Kernel{
		Name:      k.Name,
		NumRegs:   k.NumRegs,
		NumParams: k.NumParams,
		SharedWds: k.SharedWds,
		Blocks:    make([]*Block, len(k.Blocks)),
	}
	for i, b := range k.Blocks {
		nb := &Block{
			Label:   b.Label,
			Instrs:  append([]Instr(nil), b.Instrs...),
			Term:    b.Term,
			Pos:     b.Pos,
			Barrier: b.Barrier,
		}
		nk.Blocks[i] = nb
	}
	return nk
}
