// The golife pass: every `go` statement must be tied to something that can
// stop it or wait for it — a context, a WaitGroup, or a stop/work channel.
// An untied goroutine is how SIGTERM drains hang, leak tests flake, and
// daemon workers die with work in flight. The evidence accepted:
//
//   - the goroutine body mentions a context.Context;
//   - it mentions a sync.WaitGroup (Done on spawn paths, Wait on drains);
//   - it receives from, sends to, ranges over, or closes a channel that
//     exists outside the goroutine body (a work, result, or stop
//     channel) — channels created inside the body (time.After loops and
//     the like) do not count;
//   - it calls a function that is itself governed (its body shows the
//     same evidence), which rides the fact store so `go s.loop()` is
//     accepted across packages when loop selects on s.stop.
//
// Anything else is reported. A goroutine genuinely meant to outlive its
// spawner (a process-lifetime monitor) carries //vgiw:allow golife with
// its justification.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GovernedFact marks a function whose body contains lifecycle evidence, so
// `go f()` with no tying arguments is still accepted when f governs itself.
type GovernedFact struct{}

// GolifePass returns the goroutine-lifecycle pass.
func GolifePass() *Pass {
	return &Pass{
		Name: "golife",
		Doc:  "every go statement ties to a ctx, WaitGroup, or stop channel",
		Run:  runGolife,
	}
}

func runGolife(c *Context) {
	info := c.Unit.Info
	// Phase 1: export self-governance facts for every function in this
	// unit, so same-package `go f()` spawns see them independent of
	// declaration order (importers see them via unit load ordering).
	for _, fd := range funcDecls(c.Unit) {
		if c.bodyGoverned(fd.Body, fd.Body.Pos(), fd.Body.End()) {
			if obj := info.Defs[fd.Name]; obj != nil {
				c.ExportFact(obj, GovernedFact{})
			}
		}
	}
	for _, fd := range funcDecls(c.Unit) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !c.goStmtGoverned(g) {
				c.Reportf(g.Go, "goroutine in %s is not tied to a context, WaitGroup, or stop channel (no way to cancel or await it)", fd.Name.Name)
			}
			return true
		})
	}
}

func (c *Context) goStmtGoverned(g *ast.GoStmt) bool {
	info := c.Unit.Info
	call := g.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return c.bodyGoverned(lit.Body, lit.Pos(), lit.End())
	}
	// Named spawn: a tying argument is evidence; so is a callee that
	// governs itself (fact).
	for _, arg := range call.Args {
		if tiesLifecycle(info.TypeOf(arg)) {
			return true
		}
	}
	if obj := calleeObj(call, info); obj != nil {
		if _, ok := c.Fact(obj); ok {
			return true
		}
	}
	return false
}

// bodyGoverned reports lifecycle evidence inside body, whose source range
// is [lo,hi): a ctx or WaitGroup mention, a channel operation on a channel
// declared outside the range, or a call to a governed function.
func (c *Context) bodyGoverned(body ast.Node, lo, hi token.Pos) bool {
	info := c.Unit.Info
	governed := false
	ast.Inspect(body, func(n ast.Node) bool {
		if governed {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			t := info.TypeOf(n)
			if isContextType(t) || isWaitGroup(t) {
				governed = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && externalChan(n.X, lo, hi, info) {
				governed = true
			}
		case *ast.SendStmt:
			if externalChan(n.Chan, lo, hi, info) {
				governed = true
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Chan); ok && externalChan(n.X, lo, hi, info) {
				governed = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(n.Args) == 1 && externalChan(n.Args[0], lo, hi, info) {
					governed = true
					return false
				}
			}
			if obj := calleeObj(n, info); obj != nil {
				if _, ok := c.Fact(obj); ok {
					governed = true
				}
			}
		}
		return !governed
	})
	return governed
}

// externalChan reports whether e is a channel-typed expression rooted in a
// variable declared outside [lo,hi) — i.e. a channel the spawner (or a
// longer-lived struct) owns, as opposed to one the goroutine made itself.
func externalChan(e ast.Expr, lo, hi token.Pos, info *types.Info) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	root := ast.Unparen(e)
	for {
		switch r := root.(type) {
		case *ast.SelectorExpr:
			root = r.X
			continue
		case *ast.IndexExpr:
			root = r.X
			continue
		}
		break
	}
	id, ok := root.(*ast.Ident)
	if !ok {
		return false // call results (time.After()) are body-local
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && (obj.Pos() < lo || obj.Pos() >= hi)
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "WaitGroup" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

// tiesLifecycle reports whether a value of type t can cancel or await a
// goroutine: contexts, channels, and WaitGroup pointers qualify.
func tiesLifecycle(t types.Type) bool {
	if t == nil {
		return false
	}
	if isContextType(t) || isWaitGroup(t) {
		return true
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
