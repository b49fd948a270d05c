package kir

import "fmt"

// Builder constructs kernels programmatically. It is the Go-side equivalent
// of the paper's CUDA/LLVM frontend: benchmark kernels and examples assemble
// their IR through it.
//
// Errors are sticky: the first mistake is recorded and returned by Build, so
// construction code can stay free of error plumbing.
type Builder struct {
	k       *Kernel
	cur     *Block
	indexOf map[*Block]int
	done    map[*Block]bool
	err     error
}

// NewBuilder starts a kernel with the given name. The first block created
// becomes the entry block (ID 0).
func NewBuilder(name string) *Builder {
	return &Builder{
		k:       &Kernel{Name: name},
		indexOf: make(map[*Block]int),
		done:    make(map[*Block]bool),
	}
}

// SetParams declares the number of scalar launch parameters.
func (b *Builder) SetParams(n int) { b.k.NumParams = n }

// SetShared declares the per-CTA scratchpad size in 32-bit words.
func (b *Builder) SetShared(words int) { b.k.SharedWds = words }

// NewBlock appends a new basic block and returns it. It does not change the
// current emission block; call SetBlock to emit into it.
func (b *Builder) NewBlock(label string) *Block {
	blk := &Block{Label: label}
	b.indexOf[blk] = len(b.k.Blocks)
	b.k.Blocks = append(b.k.Blocks, blk)
	if b.cur == nil {
		b.cur = blk
	}
	return blk
}

// SetBlock selects the block that subsequent instructions are emitted into.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// MarkBarrier flags blk as a __syncthreads boundary (see Block.Barrier).
func (b *Builder) MarkBarrier(blk *Block) { blk.Barrier = true }

func (b *Builder) fail(format string, args ...any) Reg {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return NoReg
}

func (b *Builder) newReg() Reg {
	r := Reg(b.k.NumRegs)
	b.k.NumRegs++
	return r
}

func (b *Builder) emit(op Op, imm int32, src ...Reg) Reg {
	if b.err != nil {
		return NoReg
	}
	if b.cur == nil {
		return b.fail("kir: emit %v with no current block", op)
	}
	if b.done[b.cur] {
		return b.fail("kir: emit %v into terminated block %q", op, b.cur.Label)
	}
	if len(src) != op.NumSrc() {
		return b.fail("kir: %v takes %d sources, got %d", op, op.NumSrc(), len(src))
	}
	in := Instr{Op: op, Dst: NoReg, Src: [3]Reg{NoReg, NoReg, NoReg}, Imm: imm}
	copy(in.Src[:], src)
	if op.HasDst() {
		in.Dst = b.newReg()
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in.Dst
}

func (b *Builder) terminate(t Terminator) {
	if b.err != nil {
		return
	}
	if b.cur == nil {
		b.fail("kir: terminator with no current block")
		return
	}
	if b.done[b.cur] {
		b.fail("kir: block %q terminated twice", b.cur.Label)
		return
	}
	b.cur.Term = t
	b.done[b.cur] = true
}

// Constants and inputs.

// Const emits an integer constant.
func (b *Builder) Const(v int32) Reg { return b.emit(OpConst, v) }

// ConstF emits a float32 constant.
func (b *Builder) ConstF(v float32) Reg { return b.emit(OpConst, int32(F32(v))) }

// Param reads scalar launch parameter i.
func (b *Builder) Param(i int) Reg { return b.emit(OpParam, int32(i)) }

// Mov copies a register.
func (b *Builder) Mov(src Reg) Reg { return b.emit(OpMov, 0, src) }

// MovTo copies src into the existing register dst. The IR is not SSA:
// redefining a register is how loop-carried values are expressed, and the
// compiler's liveness pass turns cross-iteration uses into live-value traffic.
func (b *Builder) MovTo(dst, src Reg) {
	if b.err != nil {
		return
	}
	if dst < 0 || int(dst) >= b.k.NumRegs {
		b.fail("kir: MovTo target r%d was never defined", dst)
		return
	}
	if b.cur == nil || b.done[b.cur] {
		b.fail("kir: MovTo outside an open block")
		return
	}
	b.cur.Instrs = append(b.cur.Instrs, Instr{
		Op: OpMov, Dst: dst, Src: [3]Reg{src, NoReg, NoReg},
	})
}

// Thread geometry.

func (b *Builder) Tid() Reg   { return b.emit(OpTID, 0) }
func (b *Builder) TidX() Reg  { return b.emit(OpTIDX, 0) }
func (b *Builder) TidY() Reg  { return b.emit(OpTIDY, 0) }
func (b *Builder) CtaX() Reg  { return b.emit(OpCTAX, 0) }
func (b *Builder) CtaY() Reg  { return b.emit(OpCTAY, 0) }
func (b *Builder) NTidX() Reg { return b.emit(OpNTIDX, 0) }
func (b *Builder) NTidY() Reg { return b.emit(OpNTIDY, 0) }
func (b *Builder) NCtaX() Reg { return b.emit(OpNCTAX, 0) }
func (b *Builder) NCtaY() Reg { return b.emit(OpNCTAY, 0) }

// Integer arithmetic.

func (b *Builder) Add(x, y Reg) Reg    { return b.emit(OpAdd, 0, x, y) }
func (b *Builder) Sub(x, y Reg) Reg    { return b.emit(OpSub, 0, x, y) }
func (b *Builder) Mul(x, y Reg) Reg    { return b.emit(OpMul, 0, x, y) }
func (b *Builder) Div(x, y Reg) Reg    { return b.emit(OpDiv, 0, x, y) }
func (b *Builder) Rem(x, y Reg) Reg    { return b.emit(OpRem, 0, x, y) }
func (b *Builder) And(x, y Reg) Reg    { return b.emit(OpAnd, 0, x, y) }
func (b *Builder) Or(x, y Reg) Reg     { return b.emit(OpOr, 0, x, y) }
func (b *Builder) Xor(x, y Reg) Reg    { return b.emit(OpXor, 0, x, y) }
func (b *Builder) Not(x Reg) Reg       { return b.emit(OpNot, 0, x) }
func (b *Builder) Shl(x, y Reg) Reg    { return b.emit(OpShl, 0, x, y) }
func (b *Builder) ShrL(x, y Reg) Reg   { return b.emit(OpShrL, 0, x, y) }
func (b *Builder) ShrA(x, y Reg) Reg   { return b.emit(OpShrA, 0, x, y) }
func (b *Builder) Min(x, y Reg) Reg    { return b.emit(OpMin, 0, x, y) }
func (b *Builder) Max(x, y Reg) Reg    { return b.emit(OpMax, 0, x, y) }
func (b *Builder) SetEQ(x, y Reg) Reg  { return b.emit(OpSetEQ, 0, x, y) }
func (b *Builder) SetNE(x, y Reg) Reg  { return b.emit(OpSetNE, 0, x, y) }
func (b *Builder) SetLT(x, y Reg) Reg  { return b.emit(OpSetLT, 0, x, y) }
func (b *Builder) SetLE(x, y Reg) Reg  { return b.emit(OpSetLE, 0, x, y) }
func (b *Builder) SetLTU(x, y Reg) Reg { return b.emit(OpSetLTU, 0, x, y) }
func (b *Builder) SetLEU(x, y Reg) Reg { return b.emit(OpSetLEU, 0, x, y) }

// AddI adds an immediate by materializing a constant.
func (b *Builder) AddI(x Reg, v int32) Reg { return b.Add(x, b.Const(v)) }

// MulI multiplies by an immediate by materializing a constant.
func (b *Builder) MulI(x Reg, v int32) Reg { return b.Mul(x, b.Const(v)) }

// Floating point.

func (b *Builder) FAdd(x, y Reg) Reg   { return b.emit(OpFAdd, 0, x, y) }
func (b *Builder) FSub(x, y Reg) Reg   { return b.emit(OpFSub, 0, x, y) }
func (b *Builder) FMul(x, y Reg) Reg   { return b.emit(OpFMul, 0, x, y) }
func (b *Builder) FDiv(x, y Reg) Reg   { return b.emit(OpFDiv, 0, x, y) }
func (b *Builder) FSqrt(x Reg) Reg     { return b.emit(OpFSqrt, 0, x) }
func (b *Builder) FExp(x Reg) Reg      { return b.emit(OpFExp, 0, x) }
func (b *Builder) FLog(x Reg) Reg      { return b.emit(OpFLog, 0, x) }
func (b *Builder) FNeg(x Reg) Reg      { return b.emit(OpFNeg, 0, x) }
func (b *Builder) FAbs(x Reg) Reg      { return b.emit(OpFAbs, 0, x) }
func (b *Builder) FMin(x, y Reg) Reg   { return b.emit(OpFMin, 0, x, y) }
func (b *Builder) FMax(x, y Reg) Reg   { return b.emit(OpFMax, 0, x, y) }
func (b *Builder) FFloor(x Reg) Reg    { return b.emit(OpFFloor, 0, x) }
func (b *Builder) FSetEQ(x, y Reg) Reg { return b.emit(OpFSetEQ, 0, x, y) }
func (b *Builder) FSetNE(x, y Reg) Reg { return b.emit(OpFSetNE, 0, x, y) }
func (b *Builder) FSetLT(x, y Reg) Reg { return b.emit(OpFSetLT, 0, x, y) }
func (b *Builder) FSetLE(x, y Reg) Reg { return b.emit(OpFSetLE, 0, x, y) }
func (b *Builder) I2F(x Reg) Reg       { return b.emit(OpI2F, 0, x) }
func (b *Builder) F2I(x Reg) Reg       { return b.emit(OpF2I, 0, x) }

// Select returns src1 when cond != 0, else src2.
func (b *Builder) Select(cond, ifTrue, ifFalse Reg) Reg {
	return b.emit(OpSelect, 0, cond, ifTrue, ifFalse)
}

// Memory. Addresses are word-granular; off is a constant word offset.

func (b *Builder) Load(addr Reg, off int32) Reg       { return b.emit(OpLoad, off, addr) }
func (b *Builder) Store(addr Reg, off int32, v Reg)   { b.emit(OpStore, off, addr, v) }
func (b *Builder) LoadSh(addr Reg, off int32) Reg     { return b.emit(OpLoadSh, off, addr) }
func (b *Builder) StoreSh(addr Reg, off int32, v Reg) { b.emit(OpStoreSh, off, addr, v) }

// Terminators.

// Jump ends the current block with an unconditional jump.
func (b *Builder) Jump(dst *Block) {
	b.terminate(Terminator{Kind: TermJump, Then: b.blockIndex(dst)})
}

// Branch ends the current block with a conditional branch.
func (b *Builder) Branch(cond Reg, then, els *Block) {
	b.terminate(Terminator{Kind: TermBranch, Cond: cond, Then: b.blockIndex(then), Else: b.blockIndex(els)})
}

// Ret ends the current block by terminating the thread.
func (b *Builder) Ret() { b.terminate(Terminator{Kind: TermRet}) }

func (b *Builder) blockIndex(blk *Block) int {
	idx, ok := b.indexOf[blk]
	if !ok {
		b.fail("kir: jump to block not created by this builder")
		return 0
	}
	return idx
}

// Build finalizes the kernel: every block must be terminated, and the kernel
// must pass Validate.
func (b *Builder) Build() (*Kernel, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i, blk := range b.k.Blocks {
		if !b.done[blk] {
			return nil, fmt.Errorf("kir: block %d (%s) not terminated", i, blk.Label)
		}
	}
	if err := b.k.Validate(); err != nil {
		return nil, err
	}
	return b.k, nil
}

// MustBuild is Build for tests and examples with known-good construction.
func (b *Builder) MustBuild() *Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}
