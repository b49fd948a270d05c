// Package analysis is the repo's multi-pass static-analysis framework: a
// shared whole-module loader over go/parser + go/types (stdlib only, no
// external dependencies), a set of type-aware passes with cross-package fact propagation, source-
// positioned diagnostics, //vgiw:allow suppressions with unused-suppression
// auditing, and JSON/human output. cmd/vgiwcheck fronts it; `make analyze`
// gates `make check` on it.
//
// Why it exists: every guarantee this repo sells — byte-identical parallel
// sweeps, daemon results equal to in-process ones, store/restart
// byte-identity — rests on determinism and lock discipline that -race and
// goldens can only police at runtime, one execution at a time. The passes
// here prove the same properties at analysis time, over every path:
//
//   - det: values taken from a map iteration (or a multi-way select) must
//     not reach a serialized output (json/csv/fmt writers, json-tagged
//     struct fields, channel sends) without an intervening sort. This is
//     the exact bug class PRs 1 and 2 fixed by hand.
//   - lock: mutex-containing values must not be copied; explicit
//     Lock/Unlock windows must not span blocking operations (channel ops,
//     time.Sleep, net/http calls, WaitGroup.Wait); sync.Cond.Wait must sit
//     in a re-check loop.
//   - golife: every `go` statement must be tied to a context, a WaitGroup,
//     or a stop channel reachable from its body — untied goroutines are
//     how drains and SIGTERM snapshots go incomplete.
//   - hotpath, nilguard, ctxpoll: hot-path allocation bans, trace.Sink
//     nil-receiver guards and strided context polling.
//
// A pass may export facts keyed by types.Object; units are analyzed in
// dependency order, so facts exported by a callee package are visible when
// its callers are analyzed. Object identity holds across the module
// because the Loader type-checks every module-internal package exactly
// once through one importer chain.
//
// Suppression policy: a finding is silenced by a `//vgiw:allow <check> --
// <reason>` comment on the flagged line, on the line above it, or in the
// enclosing function's doc comment (which covers the whole function). The
// reason is mandatory by convention — a suppression is a claim that the
// flagged code is deliberately, defensibly what it says. `vgiwcheck
// -strict-suppressions` additionally reports allow comments (and
// //vgiw:coarsepoll markers) that no longer suppress anything, so escapes
// cannot outlive the code they excused.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Pass is one named analysis run over every loaded unit.
type Pass struct {
	Name string // check name: diagnostics carry it, //vgiw:allow keys on it
	Doc  string // one-line description for catalogs and usage output
	Run  func(*Context)
}

// A Diagnostic is one positioned finding from a pass.
type Diagnostic struct {
	Pos   token.Position
	Check string
	Msg   string
	// Strict marks audit findings (unused suppressions and markers) that
	// only surface under -strict-suppressions.
	Strict bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Msg)
}

// Context is what a pass runs against: one unit of a loaded program, plus
// the shared fact store and a reporting surface.
type Context struct {
	Pass  *Pass
	Prog  *Program
	Unit  *Unit
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic for this pass at pos.
func (c *Context) Reportf(pos token.Pos, format string, args ...any) {
	*c.diags = append(*c.diags, Diagnostic{
		Pos:   c.Prog.Fset.Position(pos),
		Check: c.Pass.Name,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// ReportStrictf records an audit diagnostic that only surfaces under
// -strict-suppressions.
func (c *Context) ReportStrictf(pos token.Pos, format string, args ...any) {
	*c.diags = append(*c.diags, Diagnostic{
		Pos:    c.Prog.Fset.Position(pos),
		Check:  c.Pass.Name,
		Msg:    fmt.Sprintf(format, args...),
		Strict: true,
	})
}

// Facts is the cross-package fact store. Facts are keyed by (pass, object);
// a pass only sees its own facts. Because units are analyzed in dependency
// order, a fact exported while analyzing package P is visible to every
// pass run over a package that imports P.
type Facts struct {
	m map[factKey]any
}

type factKey struct {
	pass string
	obj  types.Object
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts { return &Facts{m: make(map[factKey]any)} }

// ExportFact attaches fact to obj for this context's pass.
func (c *Context) ExportFact(obj types.Object, fact any) {
	c.Facts.m[factKey{c.Pass.Name, obj}] = fact
}

// Fact returns the fact attached to obj by this context's pass, if any.
func (c *Context) Fact(obj types.Object) (any, bool) {
	f, ok := c.Facts.m[factKey{c.Pass.Name, obj}]
	return f, ok
}

// An Analyzer runs a set of passes over a loaded program and applies the
// suppression policy to the result.
type Analyzer struct {
	Passes []*Pass
	// Strict surfaces audit diagnostics: unused //vgiw:allow suppressions,
	// unknown check names in allow comments, and unused //vgiw:coarsepoll
	// markers.
	Strict bool
}

// DefaultPasses returns the full pass suite in its canonical order.
func DefaultPasses() []*Pass {
	return []*Pass{
		DetPass(),
		LockPass(),
		GolifePass(),
		HotpathPass(),
		NilguardPass(),
		CtxpollPass(),
	}
}

// Run executes every pass over every unit (in dependency order, so facts
// flow from imported packages to importers), applies suppressions, and
// returns the surviving diagnostics sorted by position. Only diagnostics
// positioned in files belonging to units with Report set are returned —
// dependency units are still analyzed so their facts and suppressions
// exist, but a `vgiwcheck internal/server` run reports on server alone.
func (a *Analyzer) Run(prog *Program) []Diagnostic {
	facts := NewFacts()
	var raw []Diagnostic
	for _, u := range prog.Units {
		for _, p := range a.Passes {
			ctx := &Context{Pass: p, Prog: prog, Unit: u, Facts: facts, diags: &raw}
			p.Run(ctx)
		}
	}

	sup := collectSuppressions(prog)
	var out []Diagnostic
	reportable := make(map[string]bool)
	for _, u := range prog.Units {
		if u.Report {
			for _, name := range u.Filenames {
				reportable[name] = true
			}
		}
	}
	for _, d := range raw {
		if d.Strict && !a.Strict {
			continue
		}
		if sup.covers(d) {
			continue
		}
		if !reportable[d.Pos.Filename] {
			continue
		}
		out = append(out, d)
	}
	if a.Strict {
		known := make(map[string]bool)
		for _, p := range a.Passes {
			known[p.Name] = true
		}
		out = append(out, sup.audit(known, reportable)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// funcDecls yields every function declaration with a body in the unit, in
// file order. The shared iteration keeps per-pass boilerplate down.
func funcDecls(u *Unit) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
