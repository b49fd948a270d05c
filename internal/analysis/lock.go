// The lock pass: three sync-discipline checks that -race only catches when
// the bad interleaving actually happens.
//
//   - copy: a value containing a sync.Mutex/RWMutex/Cond/WaitGroup/Once
//     must not be copied — value receivers, by-value parameters, and
//     by-value range variables all silently fork the lock state. (go vet's
//     copylocks overlaps here; this pass keeps the property inside the
//     repo's own gate and its corpus.)
//   - block: inside an explicit Lock()…Unlock() window, blocking
//     operations — channel sends/receives (unless in a select with a
//     default), time.Sleep, WaitGroup.Wait, and net/http round-trips —
//     stall every other acquirer. deferred Unlocks are exempt: the repo's
//     handler idiom is lock-with-defer around small critical sections, and
//     flagging those would drown the signal; the explicit window is where
//     the hand-ordered Unlock makes a held blocking op both likely and
//     fixable.
//   - fileio: file I/O — os calls that open, read, write, create, rename or
//     remove files, and methods of a Store type in a package named store —
//     makes every other acquirer wait on the disk. It is reported in every
//     held window: explicit ones, deferred-unlock ones (I/O is never the
//     small critical section that exemption is for), and the whole body of
//     a function whose name ends in Locked (its caller holds the lock).
//   - condwait: sync.Cond.Wait must sit in a `for` re-check loop; an `if`
//     around Wait is the textbook lost-wakeup bug.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockPass returns the lock-discipline pass.
func LockPass() *Pass {
	return &Pass{
		Name: "lock",
		Doc:  "no lock copies, no blocking ops in explicit lock windows, no file I/O under any lock, cond.Wait in a loop",
		Run:  runLock,
	}
}

func runLock(c *Context) {
	info := c.Unit.Info
	for _, fd := range funcDecls(c.Unit) {
		// copy: value receivers and by-value parameters.
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			if lt := lockInType(info.TypeOf(fd.Recv.List[0].Type)); lt != "" {
				c.Reportf(fd.Recv.List[0].Type.Pos(), "method %s has a value receiver that copies %s; use a pointer receiver", fd.Name.Name, lt)
			}
		}
		for _, field := range fd.Type.Params.List {
			if lt := lockInType(info.TypeOf(field.Type)); lt != "" {
				c.Reportf(field.Type.Pos(), "parameter of %s passes %s by value; pass a pointer", fd.Name.Name, lt)
			}
		}
		lw := &lockWalker{c: c, fd: fd}
		held := map[string]holdKind{}
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			held[callerLock] = holdCaller
		}
		lw.walkBlock(fd.Body.List, held)
		checkCondWaitLoops(c, fd)
		checkRangeCopies(c, fd)
	}
}

// lockInType returns a description of the lock type contained (directly or
// via struct fields/arrays) in t, or "".
func lockInType(t types.Type) string {
	return lockInTypeRec(t, 0)
}

func lockInTypeRec(t types.Type, depth int) string {
	if t == nil || depth > 10 {
		return ""
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		if n, ok := t.(*types.Named); ok {
			obj := n.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				switch obj.Name() {
				case "Mutex", "RWMutex", "Cond", "WaitGroup", "Once", "Pool", "Map":
					return "sync." + obj.Name()
				}
			}
		}
		for i := 0; i < u.NumFields(); i++ {
			if lt := lockInTypeRec(u.Field(i).Type(), depth+1); lt != "" {
				return lt
			}
		}
	case *types.Array:
		return lockInTypeRec(u.Elem(), depth+1)
	}
	return ""
}

// checkRangeCopies flags `for _, v := range xs` where v copies a
// lock-containing element.
func checkRangeCopies(c *Context, fd *ast.FuncDecl) {
	info := c.Unit.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || rs.Value == nil {
			return true
		}
		if lt := lockInType(info.TypeOf(rs.Value)); lt != "" {
			c.Reportf(rs.Value.Pos(), "range value copies %s each iteration; range over indices or pointers", lt)
		}
		return true
	})
}

// holdKind says how a held lock's window was opened, which decides what the
// walker reports inside it.
type holdKind int

const (
	holdExplicit holdKind = iota // Lock() with a hand-placed Unlock(): blocking ops and file I/O
	holdDeferred                 // Lock() then defer Unlock(): file I/O only
	holdCaller                   // body of a ...Locked function: file I/O only
)

// callerLock is the held-set key for the lock a ...Locked function's caller
// holds; the walker cannot name it.
const callerLock = "the caller's lock"

// lockWalker tracks held locks through a statement list. held maps the
// lock's receiver expression text to how its window was opened.
type lockWalker struct {
	c  *Context
	fd *ast.FuncDecl
}

func (lw *lockWalker) info() *types.Info { return lw.c.Unit.Info }

// walkBlock processes stmts in order with the given held-set; nested
// control flow gets a copy (a lock acquired inside a branch is considered
// released when the branch ends — conservative in the quiet direction).
func (lw *lockWalker) walkBlock(stmts []ast.Stmt, held map[string]holdKind) {
	for _, s := range stmts {
		lw.walkStmt(s, held)
	}
}

func copyHeld(held map[string]holdKind) map[string]holdKind {
	out := make(map[string]holdKind, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (lw *lockWalker) walkStmt(s ast.Stmt, held map[string]holdKind) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, kind := lockMethodCall(call, lw.info()); kind != "" {
				switch kind {
				case "Lock", "RLock":
					held[recv] = holdExplicit
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				return
			}
		}
		lw.checkHeld(s.X, held)
	case *ast.DeferStmt:
		if recv, kind := lockMethodCall(s.Call, lw.info()); kind == "Unlock" || kind == "RUnlock" {
			// The deferred-unlock idiom turns the explicit window into one
			// held to function end by design: blocking ops are tolerated
			// there (see package comment), file I/O is not.
			if _, ok := held[recv]; ok {
				held[recv] = holdDeferred
			}
			return
		}
	case *ast.BlockStmt:
		lw.walkBlock(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			lw.walkStmt(s.Init, held)
		}
		lw.checkHeld(s.Cond, held)
		lw.walkStmt(s.Body, copyHeld(held))
		if s.Else != nil {
			lw.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		lw.walkStmt(s.Body, copyHeld(held))
	case *ast.RangeStmt:
		lw.checkHeld(s.X, held)
		lw.walkStmt(s.Body, copyHeld(held))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		for _, child := range children(s) {
			if st, ok := child.(ast.Stmt); ok {
				lw.walkStmt(st, copyHeld(held))
			}
		}
	case *ast.CaseClause:
		lw.walkBlock(s.Body, copyHeld(held))
	case *ast.SelectStmt:
		// A select with a default never blocks; one without can park the
		// goroutine while the lock is held.
		if !selectHasDefault(s) {
			lw.reportHeld(s.Select, "blocking select", held, false)
		}
		for _, cl := range s.Body.List {
			lw.walkBlock(cl.(*ast.CommClause).Body, copyHeld(held))
		}
	case *ast.GoStmt:
		// The spawned goroutine does not hold the caller's locks.
	case *ast.AssignStmt, *ast.ReturnStmt, *ast.SendStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.LabeledStmt:
		lw.checkHeld(s, held)
	}
}

// checkHeld reports blocking operations and file I/O inside n while locks
// are held.
func (lw *lockWalker) checkHeld(n ast.Node, held map[string]holdKind) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(child ast.Node) bool {
		switch child := child.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			return false // handled structurally in walkStmt
		case *ast.SendStmt:
			lw.reportHeld(child.Arrow, "channel send", held, false)
		case *ast.UnaryExpr:
			if child.Op.String() == "<-" {
				lw.reportHeld(child.OpPos, "channel receive", held, false)
			}
		case *ast.CallExpr:
			if desc := blockingCall(child, lw.info()); desc != "" {
				lw.reportHeld(child.Pos(), desc, held, false)
			}
			if desc := fileIOCall(child, lw.info()); desc != "" {
				lw.reportHeld(child.Pos(), "file I/O ("+desc+")", held, true)
			}
		}
		return true
	})
}

// reportHeld reports what at pos once per held lock whose window it is
// checked in: blocking ops in explicit windows only, file I/O in all.
func (lw *lockWalker) reportHeld(pos token.Pos, what string, held map[string]holdKind, fileIO bool) {
	for recv, kind := range held {
		switch {
		case kind == holdExplicit:
			lw.c.Reportf(pos, "%s while %s is locked (explicit Lock without deferred Unlock)", what, recv)
		case !fileIO:
		case kind == holdDeferred:
			lw.c.Reportf(pos, "%s while %s is locked (deferred Unlock holds it to function end)", what, recv)
		default:
			lw.c.Reportf(pos, "%s in %s, whose caller holds the lock", what, lw.fd.Name.Name)
		}
	}
}

// lockMethodCall matches x.Lock/Unlock/RLock/RUnlock where x is a
// sync.Mutex/RWMutex (possibly embedded), returning the receiver text and
// method kind.
func lockMethodCall(call *ast.CallExpr, info *types.Info) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", ""
	}
	return types.ExprString(sel.X), name
}

// blockingCall describes calls that can block indefinitely.
func blockingCall(call *ast.CallExpr, info *types.Info) string {
	obj := calleeObj(call, info)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		// Cond.Wait releases its own lock while parked — holding that lock
		// at the call is required, not a bug; the condwait check owns it.
		if obj.Name() == "Wait" && recvTypeName(call, info) != "Cond" {
			return "sync." + recvTypeName(call, info) + ".Wait"
		}
	case "net/http":
		switch obj.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "net/http round-trip (" + obj.Name() + ")"
		}
	}
	return ""
}

// osFileIO lists the os functions and *os.File methods that open, read,
// write, create, rename or remove files.
var osFileIO = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Rename": true, "Remove": true, "RemoveAll": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Read": true, "ReadAt": true, "ReadFrom": true,
	"Write": true, "WriteAt": true, "WriteString": true, "Sync": true,
}

// fileIOCall describes calls that do file I/O: the os calls in osFileIO,
// and every method of a Store type in a package named store (matched by
// name, as the nilguard pass matches trace.Sink, so the corpus can model
// it).
func fileIOCall(call *ast.CallExpr, info *types.Info) string {
	fn, ok := calleeObj(call, info).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	switch {
	case fn.Pkg().Path() == "os" && osFileIO[fn.Name()]:
		return "os." + name
	case fn.Pkg().Name() == "store" && strings.HasPrefix(name, "Store."):
		return "store." + name
	}
	return ""
}

func recvTypeName(call *ast.CallExpr, info *types.Info) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "?"
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "?"
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cl.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// checkCondWaitLoops flags sync.Cond.Wait calls with no enclosing for
// loop inside the function.
func checkCondWaitLoops(c *Context, fd *ast.FuncDecl) {
	info := c.Unit.Info
	var walk func(n ast.Node, inFor bool)
	walk = func(n ast.Node, inFor bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			for _, child := range children(n) {
				walk(child, true)
			}
			return
		case *ast.FuncLit:
			walk(n.Body, false)
			return
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
					if t := info.TypeOf(sel.X); t != nil && condType(t) && !inFor {
						c.Reportf(n.Pos(), "sync.Cond.Wait outside a for loop: spurious wakeups require re-checking the condition in a loop")
					}
				}
			}
		}
		for _, child := range children(n) {
			walk(child, inFor)
		}
	}
	walk(fd.Body, false)
}

func condType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Cond" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}
