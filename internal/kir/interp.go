package kir

import "fmt"

// Interp is a sequential reference interpreter for the kernel IR. It defines
// the golden functional semantics that every simulator's output is validated
// against in tests. It has no timing model.
//
// Threads of a CTA execute in barrier-delimited phases: each phase runs every
// thread until it either returns or reaches a block flagged Barrier, then the
// next phase begins. This matches CUDA __syncthreads for well-structured
// kernels (all threads of a CTA reach the same barriers in the same order),
// which is the class of kernels this repository models.
type Interp struct {
	Kernel *Kernel
	Launch Launch
	Global []uint32 // global memory (word addressed)

	// MaxSteps bounds the dynamic block executions per thread to catch
	// runaway loops; 0 means the default of 1<<22.
	MaxSteps int
}

// threadState tracks one thread between phases.
type threadState struct {
	regs  []uint32
	block int  // next block to execute
	done  bool // thread returned
}

// Run executes the kernel launch to completion, mutating i.Global in place.
func (i *Interp) Run() error {
	if err := i.Kernel.Validate(); err != nil {
		return err
	}
	if err := i.Kernel.ValidateLaunch(i.Launch); err != nil {
		return err
	}
	maxSteps := i.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 22
	}
	ctaSize := i.Launch.CTASize()
	for cta := 0; cta < i.Launch.CTAs(); cta++ {
		shared := make([]uint32, i.Kernel.SharedWds)
		threads := make([]threadState, ctaSize)
		for t := range threads {
			threads[t] = threadState{regs: make([]uint32, i.Kernel.NumRegs)}
		}
		base := cta * ctaSize
		for {
			alive := false
			for t := range threads {
				ts := &threads[t]
				if ts.done {
					continue
				}
				alive = true
				if err := i.runPhase(ts, base+t, shared, maxSteps); err != nil {
					return err
				}
			}
			if !alive {
				break
			}
		}
	}
	return nil
}

// runPhase advances one thread until it returns or stops in front of a
// barrier block (having already executed at least one block this phase).
func (i *Interp) runPhase(ts *threadState, tid int, shared []uint32, maxSteps int) error {
	k := i.Kernel
	for steps := 0; ; steps++ {
		if steps >= maxSteps {
			return fmt.Errorf("kir: thread %d exceeded %d block executions in kernel %s (runaway loop?)",
				tid, maxSteps, k.Name)
		}
		blk := k.Blocks[ts.block]
		if steps > 0 && blk.Barrier {
			return nil // wait for the rest of the CTA
		}
		for _, in := range blk.Instrs {
			if err := i.exec(ts, in, tid, shared); err != nil {
				return fmt.Errorf("kernel %s block %d (%s): %w", k.Name, ts.block, blk.Label, err)
			}
		}
		switch blk.Term.Kind {
		case TermJump:
			ts.block = blk.Term.Then
		case TermBranch:
			if ts.regs[blk.Term.Cond] != 0 {
				ts.block = blk.Term.Then
			} else {
				ts.block = blk.Term.Else
			}
		case TermRet:
			ts.done = true
			return nil
		}
	}
}

func (i *Interp) exec(ts *threadState, in Instr, tid int, shared []uint32) error {
	r := ts.regs
	switch {
	case in.Op == OpParam:
		r[in.Dst] = i.Launch.Params[in.Imm]
	case in.Op.IsGeometry():
		r[in.Dst] = i.Launch.Geometry(in.Op, tid)
	case in.Op == OpLoad:
		addr := int(int32(r[in.Src[0]]) + in.Imm)
		if addr < 0 || addr >= len(i.Global) {
			return fmt.Errorf("thread %d: global load out of bounds: %d (size %d)", tid, addr, len(i.Global))
		}
		r[in.Dst] = i.Global[addr]
	case in.Op == OpStore:
		addr := int(int32(r[in.Src[0]]) + in.Imm)
		if addr < 0 || addr >= len(i.Global) {
			return fmt.Errorf("thread %d: global store out of bounds: %d (size %d)", tid, addr, len(i.Global))
		}
		i.Global[addr] = r[in.Src[1]]
	case in.Op == OpLoadSh:
		addr := int(int32(r[in.Src[0]]) + in.Imm)
		if addr < 0 || addr >= len(shared) {
			return fmt.Errorf("thread %d: shared load out of bounds: %d (size %d)", tid, addr, len(shared))
		}
		r[in.Dst] = shared[addr]
	case in.Op == OpStoreSh:
		addr := int(int32(r[in.Src[0]]) + in.Imm)
		if addr < 0 || addr >= len(shared) {
			return fmt.Errorf("thread %d: shared store out of bounds: %d (size %d)", tid, addr, len(shared))
		}
		shared[addr] = r[in.Src[1]]
	default:
		var a, b, c uint32
		n := in.Op.NumSrc()
		if n > 0 {
			a = r[in.Src[0]]
		}
		if n > 1 {
			b = r[in.Src[1]]
		}
		if n > 2 {
			c = r[in.Src[2]]
		}
		r[in.Dst] = Eval(in.Op, a, b, c, in.Imm)
	}
	return nil
}
