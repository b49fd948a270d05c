// The three source-shape checks; the corpus under testdata/analysis pins
// their exact diagnostics.
//
//   - hotpath: //vgiw:hotpath functions must not allocate (append, map
//     literals, make(map), closures, fmt calls). Pre-sized slice make is
//     allowed: the hot loops pre-size reusable buffers.
//   - nilguard: exported pointer-receiver methods of trace.Sink must
//     handle a nil receiver first (nil sink = tracing off).
//   - ctxpoll: ctx.Err() polls in loops must be strided, or the function
//     carries //vgiw:coarsepoll. In strict mode the pass also audits
//     coarsepoll markers that no longer excuse any poll.

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MarkerHotpath and MarkerCoarsepoll are the magic doc-comment markers the
// hotpath and ctxpoll checks key on.
const (
	MarkerHotpath    = "//vgiw:hotpath"
	MarkerCoarsepoll = "//vgiw:coarsepoll"
)

// HotpathPass returns the hotpath allocation-ban pass.
func HotpathPass() *Pass {
	return &Pass{
		Name: "hotpath",
		Doc:  "//vgiw:hotpath functions must not allocate",
		Run: func(c *Context) {
			for _, fd := range funcDecls(c.Unit) {
				if hasMarker(fd.Doc, MarkerHotpath) {
					checkHotpath(c, fd)
				}
			}
		},
	}
}

// NilguardPass returns the trace.Sink nil-receiver pass.
func NilguardPass() *Pass {
	return &Pass{
		Name: "nilguard",
		Doc:  "exported (*trace.Sink) methods must handle a nil receiver first",
		Run: func(c *Context) {
			if c.Unit.Name != "trace" {
				return
			}
			for _, fd := range funcDecls(c.Unit) {
				checkNilGuard(c, fd)
			}
		},
	}
}

// CtxpollPass returns the strided-context-poll pass.
func CtxpollPass() *Pass {
	return &Pass{
		Name: "ctxpoll",
		Doc:  "ctx.Err() polls in loops must be strided or //vgiw:coarsepoll-marked",
		Run: func(c *Context) {
			for _, fd := range funcDecls(c.Unit) {
				marked := hasMarker(fd.Doc, MarkerCoarsepoll)
				polls := checkCtxPoll(c, fd, marked)
				if marked && polls == 0 {
					c.ReportStrictf(fd.Pos(), "unused //vgiw:coarsepoll on %s: no ctx.Err() poll inside a loop (remove the marker)", fd.Name.Name)
				}
			}
		},
	}
}

func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// checkHotpath flags allocating constructs in a //vgiw:hotpath function:
// append, map literals, make(map), func literals, and fmt calls. Slice
// make() is allowed — the hot loops pre-size reusable buffers, which is
// exactly the pattern that keeps the steady state allocation-free.
func checkHotpath(c *Context, fd *ast.FuncDecl) {
	info := c.Unit.Info
	add := func(pos token.Pos, format string, args ...any) {
		c.Reportf(pos, fmt.Sprintf(format, args...)+" in //vgiw:hotpath function "+fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			add(n.Pos(), "function literal (closure allocation)")
			return false // the closure's own body is off the hot path
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					add(n.Pos(), "map literal")
				}
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if obj, ok := info.Uses[fun].(*types.Builtin); ok {
					switch obj.Name() {
					case "append":
						add(n.Pos(), "append (may grow and allocate)")
					case "make":
						if len(n.Args) > 0 {
							if t := info.TypeOf(n.Args[0]); t != nil {
								if _, isMap := t.Underlying().(*types.Map); isMap {
									add(n.Pos(), "make(map)")
								}
							}
						}
					}
				}
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok {
					if pkg, ok := info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
						add(n.Pos(), "fmt.%s call (allocates on every call)", fun.Sel.Name)
					}
				}
			}
		}
		return true
	})
}

// checkNilGuard enforces the trace.Sink receiver contract: every exported
// pointer-receiver method of Sink must handle a nil receiver before touching
// it, either with a leading `if s == nil` statement or, for one-line
// methods, a `s != nil`/`s == nil` test inside the single return expression.
func checkNilGuard(c *Context, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() {
		return
	}
	star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return
	}
	id, ok := star.X.(*ast.Ident)
	if !ok || id.Name != "Sink" {
		return
	}
	if len(fd.Recv.List[0].Names) != 1 {
		return // unnamed receiver cannot be dereferenced at all
	}
	recv := fd.Recv.List[0].Names[0].Name
	if len(fd.Body.List) > 0 {
		switch first := fd.Body.List[0].(type) {
		case *ast.IfStmt:
			if mentionsNilTest(first.Cond, recv) {
				return
			}
		case *ast.ReturnStmt:
			for _, e := range first.Results {
				if mentionsNilTest(e, recv) {
					return
				}
			}
		}
	}
	c.Reportf(fd.Pos(), "exported method (*Sink).%s must start by handling a nil receiver (a nil sink means tracing is off)", fd.Name.Name)
}

// mentionsNilTest reports whether expr contains `recv == nil` or
// `recv != nil` (possibly inside a larger boolean expression).
func mentionsNilTest(expr ast.Expr, recv string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		x, xo := be.X.(*ast.Ident)
		y, yo := be.Y.(*ast.Ident)
		if xo && yo && ((x.Name == recv && y.Name == "nil") || (y.Name == recv && x.Name == "nil")) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkCtxPoll flags context.Context Err() polls that run on every
// iteration of a loop, unless marked is true (the //vgiw:coarsepoll
// escape). It returns the number of in-loop polls seen, so the pass can
// audit markers that excuse nothing.
func checkCtxPoll(c *Context, fd *ast.FuncDecl, marked bool) int {
	info := c.Unit.Info
	polls := 0
	type frame struct {
		loop    bool // ForStmt or RangeStmt
		strided bool // IfStmt with a modulus condition or an init statement
	}
	var stack []frame

	// ast.Inspect cannot report which node a post-order visit is leaving,
	// and the check needs matched push/pop around loops and ifs, so walk
	// with explicit recursion instead.
	var rec func(n ast.Node)
	rec = func(n ast.Node) {
		if n == nil {
			return
		}
		pushed := false
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			stack = append(stack, frame{loop: true})
			pushed = true
		case *ast.IfStmt:
			// An if with a modulus condition or a countdown init is a stride
			// guard — but `if err := ctx.Err(); ...` is the poll itself, not
			// a guard, so an init that contains the poll does not count.
			strided := hasModulus(n.Cond) ||
				(n.Init != nil && !containsCtxErr(n.Init, info))
			stack = append(stack, frame{strided: strided})
			pushed = true
		case *ast.FuncLit:
			// A nested closure polls on its own schedule; its loops are
			// judged on their own, not against the enclosing function's.
			saved := stack
			stack = nil
			rec(n.Body)
			stack = saved
			return
		case *ast.CallExpr:
			if isCtxErrCall(n, info) {
				inLoop, strided := false, false
				for _, f := range stack {
					if f.loop {
						inLoop, strided = true, false // reset at each loop level
					}
					if f.strided {
						strided = true
					}
				}
				if inLoop && !strided {
					polls++
					if !marked {
						c.Reportf(n.Pos(), "ctx.Err() polled every loop iteration in %s; stride the poll or mark the function %s", fd.Name.Name, MarkerCoarsepoll)
					}
				}
			}
		}
		for _, child := range children(n) {
			rec(child)
		}
		if pushed {
			stack = stack[:len(stack)-1]
		}
	}
	rec(fd.Body)
	return polls
}

// children returns the direct child nodes of n, in source order.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true // skip n itself, descend
		}
		if c != nil {
			out = append(out, c)
		}
		return false // do not descend further; callers handle recursion
	})
	return out
}

func containsCtxErr(n ast.Node, info *types.Info) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok && isCtxErrCall(call, info) {
			found = true
			return false
		}
		return true
	})
	return found
}

func hasModulus(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.REM {
			found = true
			return false
		}
		return true
	})
	return found
}

// isCtxErrCall reports whether n is x.Err() with x a context.Context.
func isCtxErrCall(n *ast.CallExpr, info *types.Info) bool {
	sel, ok := n.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Err" || len(n.Args) != 0 {
		return false
	}
	return isContextType(info.TypeOf(sel.X))
}
