// Package verify statically checks kernel-IR invariants.
//
// It is the first layer of the repository's verification spine: structural
// well-formedness (kir's rules, reported as diagnostics), def-before-use over
// the CFG, per-opcode operand/result type agreement, reachability, and the
// paper's block-schedule numbering (§3.1). The launch rule is kir's
// Kernel.ValidateLaunch. The second layer — the post-pass invariant checks
// that need compiler data structures (live-value allocation, dataflow
// graphs, if-conversion state) — lives in internal/compile and the
// placed-graph checks in internal/fabric; both report their findings with
// this package's Diagnostic type so every verification failure in the
// system has the same shape.
//
// verify imports only internal/kir. In particular it does not use
// internal/compile's CFG analyses: reverse postorder, reachability, and the
// definite-assignment dataflow are reimplemented here so that the verifier
// checks the compiler's results against an independent computation rather
// than against itself.
package verify

import (
	"errors"
	"fmt"
	"strings"

	"vgiw/internal/kir"
)

// Diagnostic is one verifier finding. It implements error; multiple findings
// are combined with errors.Join (see Join) and recovered with Diagnostics.
type Diagnostic struct {
	Pass   string  // compiler pass or checker that found it ("structural", "remat", "dfg", ...)
	Kernel string  // kernel name
	Block  int     // block index, or -1 for a kernel-wide finding
	Op     int     // instruction index within Block, or -1 for the terminator / whole block
	Pos    kir.Pos // kasm source position when the kernel was parsed from text
	Msg    string
}

func (d Diagnostic) Error() string {
	var b strings.Builder
	b.WriteString("verify")
	if d.Pass != "" {
		fmt.Fprintf(&b, " [%s]", d.Pass)
	}
	if d.Kernel != "" {
		fmt.Fprintf(&b, ": kernel %s", d.Kernel)
	}
	if d.Block >= 0 {
		fmt.Fprintf(&b, ": block %d", d.Block)
	}
	if d.Op >= 0 {
		fmt.Fprintf(&b, ": instr %d", d.Op)
	}
	fmt.Fprintf(&b, ": %s", d.Msg)
	if !d.Pos.IsZero() {
		fmt.Fprintf(&b, " (%s)", d.Pos)
	}
	return b.String()
}

// Join combines diagnostics into a single error via errors.Join.
// It returns nil when there are none.
func Join(ds []Diagnostic) error {
	if len(ds) == 0 {
		return nil
	}
	errs := make([]error, len(ds))
	for i, d := range ds {
		errs[i] = d
	}
	return errors.Join(errs...)
}

// Diagnostics recovers every Diagnostic from an error tree built with Join,
// fmt.Errorf("%w"), or errors.Join. It returns nil if the error carries none.
func Diagnostics(err error) []Diagnostic {
	var out []Diagnostic
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if d, ok := e.(Diagnostic); ok {
			out = append(out, d)
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

// Mode selects which kernel checks run. Kernels straight out of the frontend
// satisfy Source; kernels that have been through compile.ScheduleBlocks must
// additionally satisfy Compiled.
type Mode uint8

const (
	Structural Mode = 1 << iota // kir.Kernel.Check: arity, register/param/target ranges, declarations, entry rules
	DefUse                      // every use definitely assigned on all paths from entry
	Types                       // operand/result types agree with each op's signature
	Reachable                   // every block reachable from the entry
	Scheduled                   // block IDs are in schedule (reverse-postorder) order

	// Source is the contract for freshly parsed or builder-made kernels.
	Source = Structural | DefUse | Types
	// Compiled is the contract after block scheduling: Source plus
	// reachability (ScheduleBlocks drops unreachable blocks) and the §3.1
	// block-numbering rule.
	Compiled = Source | Reachable | Scheduled
)

// Kernel runs the selected checks and returns every finding. pass names the
// compiler stage being verified and is recorded on each diagnostic.
func Kernel(pass string, k *kir.Kernel, mode Mode) []Diagnostic {
	c := &checker{pass: pass, k: k}
	if mode&Structural != 0 {
		// kir owns the structural rules; every front end and machine
		// enforces the same ones through kir.Kernel.Validate.
		k.Check(func(f kir.Finding) {
			c.ds = append(c.ds, Diagnostic{Pass: pass, Kernel: k.Name, Block: f.Block, Op: f.Instr, Pos: f.Pos, Msg: f.Msg})
		})
	}
	// The dataflow checks index registers and blocks; without structural
	// sanity they could fault, so they only run on a structurally sound
	// kernel and otherwise stay silent behind the structural findings.
	if len(c.ds) == 0 {
		if mode&DefUse != 0 {
			c.defUse()
		}
		if mode&Types != 0 {
			c.types()
		}
		if mode&Reachable != 0 {
			c.reachability()
		}
		if mode&Scheduled != 0 {
			c.scheduleOrder()
		}
	}
	return c.ds
}

// Check is Kernel followed by Join: nil when the kernel satisfies mode.
func Check(pass string, k *kir.Kernel, mode Mode) error {
	return Join(Kernel(pass, k, mode))
}
