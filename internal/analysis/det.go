// The det pass: map iteration order (and select arrival order) must not
// reach a serialized output without an intervening sort.
//
// Go randomizes map iteration per run, and a multi-way select picks among
// ready cases pseudo-randomly — both are exactly the nondeterminism the
// repo's guarantees (byte-identical parallel sweeps, store/restart
// byte-identity, daemon results equal to in-process ones) cannot absorb.
// The pass runs a function-local, flow-approximate taint analysis:
//
//   - Sources: `range` over a map; appends inside a multi-way select
//     clause. Values accumulated from a source (append to a pre-existing
//     slice, string +=) taint the accumulator. Floating-point += inside a
//     map range is reported outright: reassociating float addition changes
//     the sum, so no later sort can repair it.
//   - Sinks: serialization calls (encoding/json Marshal/Encode,
//     encoding/csv writes, fmt print/Fprint family, io/bytes/strings/hash
//     Write*), assignment into a json- or csv-tagged struct field, and —
//     inside the source loop itself — any sink call or channel send.
//   - Sanitizer: a sort (sort.* / slices.Sort*) whose argument is the
//     tainted value clears the taint.
//
// Cross-package flow rides the fact store: a function that returns a value
// still tainted at the return exports OrderedFact; callers (in this
// package or any importer, analyzed later in dependency order) treat its
// call result as tainted. The analysis is deliberately approximate —
// statement order is approximated by traversal order, and only values
// nameable as expressions are tracked — but every approximation errs
// toward silence on sorted code and noise on genuinely unordered flows,
// which the corpus tests pin in both directions.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// OrderedFact marks a function whose return value carries map-iteration
// (or select-arrival) order that was never sorted before the return.
type OrderedFact struct{}

// DetPass returns the determinism-taint pass.
func DetPass() *Pass {
	return &Pass{
		Name: "det",
		Doc:  "map/select iteration order must not reach serialized output unsorted",
		Run:  runDet,
	}
}

func runDet(c *Context) {
	// Phase 1 computes facts only (which functions return unsorted
	// map-ordered data), so same-package callers analyzed in phase 2 see
	// them regardless of declaration order.
	for _, fd := range funcDecls(c.Unit) {
		w := &detWalker{c: c, fd: fd, factsOnly: true, tainted: map[string]*taint{}}
		w.walk(fd.Body)
	}
	for _, fd := range funcDecls(c.Unit) {
		w := &detWalker{c: c, fd: fd, tainted: map[string]*taint{}}
		w.walk(fd.Body)
	}
}

// A taint records why a tracked expression's content order is unstable.
type taint struct {
	origin string // "map iteration", "select arrival", or "call to F"
}

type detWalker struct {
	c         *Context
	fd        *ast.FuncDecl
	factsOnly bool
	// mapRanges is the stack of enclosing `range <map>` statements.
	mapRanges []*ast.RangeStmt
	// selects is the stack of enclosing multi-way selects.
	selects []*ast.SelectStmt
	// tainted tracks order-unstable values by canonical expression text
	// (types.ExprString): plain variables and field chains both work.
	tainted map[string]*taint
}

func (w *detWalker) info() *types.Info { return w.c.Unit.Info }

func (w *detWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.RangeStmt:
		if isMapType(w.info().TypeOf(n.X)) {
			w.walk(n.X)
			w.mapRanges = append(w.mapRanges, n)
			w.walk(n.Body)
			w.mapRanges = w.mapRanges[:len(w.mapRanges)-1]
			return
		}
	case *ast.SelectStmt:
		comm := 0
		for _, cl := range n.Body.List {
			if cl.(*ast.CommClause).Comm != nil {
				comm++
			}
		}
		if comm >= 2 {
			w.selects = append(w.selects, n)
			w.walk(n.Body)
			w.selects = w.selects[:len(w.selects)-1]
			return
		}
	case *ast.AssignStmt:
		w.assign(n)
		return
	case *ast.SendStmt:
		if len(w.mapRanges) > 0 {
			w.report(n.Arrow, "map iteration order determines channel send order (sort the keys first)")
		}
	case *ast.CallExpr:
		w.call(n)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if w.lookup(res) != nil {
				if obj := w.info().Defs[w.fd.Name]; obj != nil && w.factsOnly {
					w.c.ExportFact(obj, OrderedFact{})
				}
			}
		}
	case *ast.FuncLit:
		// A closure shares the enclosing function's variables, so taint
		// state flows straight through; map-range/select context does not.
		savedR, savedS := w.mapRanges, w.selects
		w.mapRanges, w.selects = nil, nil
		w.walk(n.Body)
		w.mapRanges, w.selects = savedR, savedS
		return
	}
	for _, child := range children(n) {
		w.walk(child)
	}
}

// assign handles taint introduction, propagation, clearing, and the
// json-tagged-field sink.
func (w *detWalker) assign(n *ast.AssignStmt) {
	for _, rhs := range n.Rhs {
		w.walk(rhs) // sinks/sorts inside the RHS still count
	}
	// Compound assignment: `s += v` accumulates in iteration order.
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		if len(n.Lhs) == 1 && len(w.mapRanges) > 0 {
			t := w.info().TypeOf(n.Lhs[0])
			if b, ok := t.Underlying().(*types.Basic); ok {
				switch {
				case n.Tok == token.ADD_ASSIGN && b.Info()&types.IsFloat != 0:
					w.report(n.TokPos, "floating-point accumulation follows map iteration order (sum over sorted keys instead)")
				case n.Tok == token.ADD_ASSIGN && b.Info()&types.IsString != 0:
					w.taintExpr(n.Lhs[0], "map iteration order")
				}
			}
		}
		return
	}
	if len(n.Lhs) != len(n.Rhs) {
		// Multi-value form (x, y := f()): taint every LHS if f carries
		// the fact.
		if len(n.Rhs) == 1 {
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok && w.calleeOrdered(call) {
				for _, lhs := range n.Lhs {
					w.taintExpr(lhs, "the unsorted map-order result of "+calleeName(call, w.info()))
				}
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		rhs := n.Rhs[i]
		switch origin := w.rhsOrigin(lhs, rhs); origin {
		case "":
			// Plain overwrite: whatever order-instability the old value
			// had is gone.
			w.clearExpr(lhs)
		default:
			if tag, field := w.taggedField(lhs); tag != "" {
				w.report(lhs.Pos(), "%s-tagged field %s receives a value carrying %s without an intervening sort", tag, field, origin)
				w.clearExpr(lhs)
				continue
			}
			w.taintExpr(lhs, origin)
		}
	}
	// Composite literals on the RHS may stuff tainted values into tagged
	// fields directly: T{Rows: s}.
	for _, rhs := range n.Rhs {
		w.compositeSink(rhs)
	}
}

// rhsOrigin decides whether assigning rhs to lhs makes lhs order-unstable,
// returning the origin description ("" for a clean overwrite).
func (w *detWalker) rhsOrigin(lhs, rhs ast.Expr) string {
	if t := w.lookup(rhs); t != nil {
		return t.origin
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if isBuiltinAppend(call, w.info()) {
			for _, arg := range call.Args {
				if t := w.lookup(arg); t != nil {
					return t.origin
				}
			}
			// Accumulating append: the target predates the loop, so
			// successive iterations deposit in iteration order.
			if len(w.mapRanges) > 0 && w.declaredBefore(lhs, w.mapRanges[len(w.mapRanges)-1].Pos()) {
				return "map iteration order"
			}
			if len(w.selects) > 0 && w.declaredBefore(lhs, w.selects[len(w.selects)-1].Pos()) {
				return "select arrival order"
			}
			return ""
		}
		if w.calleeOrdered(call) {
			return "the unsorted map-order result of " + calleeName(call, w.info())
		}
	}
	return ""
}

// call handles sink calls and sort sanitizers.
func (w *detWalker) call(n *ast.CallExpr) {
	if sortArg := sortCallArg(n, w.info()); sortArg != nil {
		w.clearExpr(sortArg)
		// sort.Sort(byX(s)) wraps the slice in a conversion/constructor.
		if inner, ok := ast.Unparen(sortArg).(*ast.CallExpr); ok && len(inner.Args) == 1 {
			w.clearExpr(inner.Args[0])
		}
		return
	}
	sink, isSink := sinkCall(n, w.info())
	if !isSink {
		return
	}
	if len(w.mapRanges) > 0 {
		w.report(n.Pos(), "map iteration order reaches %s (sort the keys first)", sink)
		return
	}
	for _, arg := range n.Args {
		if t := w.lookup(arg); t != nil {
			w.report(n.Pos(), "%s carries %s and reaches %s without an intervening sort", types.ExprString(arg), t.origin, sink)
		} else if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok && w.calleeOrdered(call) {
			w.report(n.Pos(), "the unsorted map-order result of %s reaches %s", calleeName(call, w.info()), sink)
		} else {
			w.compositeSink(arg)
		}
	}
}

// compositeSink reports tainted values placed into json/csv-tagged fields
// of a composite literal.
func (w *detWalker) compositeSink(e ast.Expr) {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return
	}
	st, ok := typeStruct(w.info().TypeOf(cl))
	if !ok {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		t := w.lookup(kv.Value)
		if t == nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() != key.Name {
				continue
			}
			if tag := serialTag(st.Tag(i)); tag != "" {
				w.report(kv.Pos(), "%s-tagged field %s is initialized with a value carrying %s without an intervening sort", tag, key.Name, t.origin)
			}
		}
	}
}

func (w *detWalker) report(pos token.Pos, format string, args ...any) {
	if w.factsOnly {
		return
	}
	w.c.Reportf(pos, format, args...)
}

// --- taint bookkeeping -----------------------------------------------------

func (w *detWalker) taintExpr(e ast.Expr, origin string) {
	key := types.ExprString(ast.Unparen(e))
	if key == "_" || key == "" {
		return
	}
	w.tainted[key] = &taint{origin: origin}
}

// lookup returns the taint on e, on a field chain under e (json.Marshal(res)
// with res.Rows tainted), or on a chain e is part of.
func (w *detWalker) lookup(e ast.Expr) *taint {
	key := types.ExprString(ast.Unparen(e))
	if t, ok := w.tainted[key]; ok {
		return t
	}
	for k, t := range w.tainted {
		if strings.HasPrefix(k, key+".") || strings.HasPrefix(key, k+".") {
			return t
		}
	}
	return nil
}

func (w *detWalker) clearExpr(e ast.Expr) {
	key := types.ExprString(ast.Unparen(e))
	delete(w.tainted, key)
	for k := range w.tainted {
		if strings.HasPrefix(k, key+".") {
			delete(w.tainted, k)
		}
	}
}

// declaredBefore reports whether the variable at the root of e was
// declared before pos (so a loop-body append accumulates across
// iterations rather than building a per-iteration value).
func (w *detWalker) declaredBefore(e ast.Expr, pos token.Pos) bool {
	root := ast.Unparen(e)
	for {
		if sel, ok := root.(*ast.SelectorExpr); ok {
			root = sel.X
			continue
		}
		break
	}
	id, ok := root.(*ast.Ident)
	if !ok {
		return true // fields, indexes: assume pre-existing
	}
	obj := w.info().Uses[id]
	if obj == nil {
		obj = w.info().Defs[id]
	}
	return obj == nil || obj.Pos() < pos
}

// calleeOrdered reports whether the call's target carries OrderedFact.
func (w *detWalker) calleeOrdered(call *ast.CallExpr) bool {
	obj := calleeObj(call, w.info())
	if obj == nil {
		return false
	}
	_, ok := w.c.Fact(obj)
	return ok
}

// taggedField returns ("json"|"csv", fieldName) when lhs selects a struct
// field carrying a json or csv tag.
func (w *detWalker) taggedField(lhs ast.Expr) (string, string) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	selection, ok := w.info().Selections[sel]
	if !ok {
		return "", ""
	}
	st, ok := typeStruct(selection.Recv())
	if !ok {
		return "", ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == selection.Obj() {
			if tag := serialTag(st.Tag(i)); tag != "" {
				return tag, sel.Sel.Name
			}
		}
	}
	return "", ""
}

// --- shared type/call helpers ----------------------------------------------

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func typeStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// serialTag returns "json" or "csv" when the struct tag marks the field
// for serialization (ignoring `json:"-"`).
func serialTag(tag string) string {
	st := structTag(tag)
	for _, key := range []string{"json", "csv"} {
		if v, ok := st.lookup(key); ok && v != "-" {
			return key
		}
	}
	return ""
}

// structTag is a minimal reflect.StructTag replica (reflect is avoided so
// the analyzer stays purely syntactic/typed).
type structTag string

func (t structTag) lookup(key string) (string, bool) {
	s := string(t)
	for s != "" {
		s = strings.TrimLeft(s, " ")
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		name := s[:i]
		s = s[i+1:]
		if len(s) == 0 || s[0] != '"' {
			break
		}
		j := 1
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(s) {
			break
		}
		val := s[1:j]
		s = s[j+1:]
		if name == key {
			return val, true
		}
	}
	return "", false
}

func isBuiltinAppend(call *ast.CallExpr, info *types.Info) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// calleeObj resolves the called function or method object, or nil.
func calleeObj(call *ast.CallExpr, info *types.Info) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeName renders the callee for messages ("pkg.F" or "T.M" best-effort).
func calleeName(call *ast.CallExpr, info *types.Info) string {
	return types.ExprString(ast.Unparen(call.Fun))
}

// sortCallArg returns the sorted argument when call is a recognized sort
// (sort.* or slices.Sort*), else nil.
func sortCallArg(call *ast.CallExpr, info *types.Info) ast.Expr {
	obj := calleeObj(call, info)
	if obj == nil || obj.Pkg() == nil || len(call.Args) == 0 {
		return nil
	}
	switch obj.Pkg().Path() {
	case "sort":
		switch obj.Name() {
		case "Sort", "Stable", "Strings", "Ints", "Float64s", "Slice", "SliceStable":
			return call.Args[0]
		}
	case "slices":
		if strings.HasPrefix(obj.Name(), "Sort") {
			return call.Args[0]
		}
	}
	return nil
}

// sinkCall reports whether call serializes its arguments, and what to call
// the sink in the diagnostic.
func sinkCall(call *ast.CallExpr, info *types.Info) (string, bool) {
	obj := calleeObj(call, info)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	name := obj.Name()
	switch obj.Pkg().Path() {
	case "encoding/json":
		switch name {
		case "Marshal", "MarshalIndent", "Encode":
			return "encoding/json." + name, true
		}
	case "encoding/csv":
		switch name {
		case "Write", "WriteAll":
			return "encoding/csv." + name, true
		}
	case "fmt":
		switch name {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
			return "fmt." + name, true
		}
	case "io":
		if name == "Write" || name == "WriteString" {
			return "io.Writer." + name, true
		}
	case "bytes", "strings", "bufio", "hash":
		if strings.HasPrefix(name, "Write") {
			return obj.Pkg().Path() + " " + name, true
		}
	}
	return "", false
}
