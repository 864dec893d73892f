// Package unlockedsend flags channel sends, func-value callbacks, and
// module-interface calls (Shard, event sinks, stores)
// made while a sync.Mutex or sync.RWMutex is held — the event-hub and
// model-cache deadlock class: a callback that re-enters the locking
// component, or a send that blocks with the lock pinned, wedges every
// other goroutine contending for it.
package unlockedsend

import (
	"go/ast"
	"go/types"
	"sort"

	"selflearn/internal/analysis"
)

// Analyzer is the unlockedsend pass.
var Analyzer = &analysis.Analyzer{
	Name: "unlockedsend",
	Doc: `no channel send, callback, or module-interface call under a held mutex

Tracks mu.Lock()/mu.RLock() ... mu.Unlock() regions (including the
defer Unlock idiom) through straight-line and branching code, and flags
inside them: channel send statements, calls of func-typed values
(onEvict, sinks, hooks), and method calls through interfaces declared
in this module (Shard, ModelStore, ...). Calls to
functions that transitively perform one of those operations are flagged
too — same-package via a fixpoint over function summaries, cross-package
via exported package facts. Deliberate patterns (a non-blocking select
send used as a close-handshake, a serialization mutex whose entire
point is guarding the callee) are escaped with
//selflearn:locked-ok <reason> on the flagged line.`,
	Run: run,
}

// Fact records which exported functions of a package perform a send,
// callback, or module-interface call (directly or transitively), so
// callers in other packages can check calls made under their own locks.
type Fact struct {
	Sends map[string]string // FuncName -> short description of what it does
}

const escape = "locked-ok"

func run(pass *analysis.Pass) (any, error) {
	markers := analysis.CollectMarkers(pass)
	funcs := pass.PackageFuncs()

	c := &checkerState{
		pass:     pass,
		markers:  markers,
		decls:    make(map[*types.Func]*ast.FuncDecl, len(funcs)),
		summary:  make(map[*types.Func]string),
		depFacts: make(map[string]*Fact),
	}
	for _, fi := range funcs {
		c.decls[fi.Obj] = fi.Decl
	}

	// Fixpoint over same-package call edges: a function "sends" if its
	// body sends directly or calls a sender.
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if c.summary[fi.Obj] != "" {
				continue
			}
			if why := c.bodySends(fi.Decl); why != "" {
				c.summary[fi.Obj] = why
				changed = true
			}
		}
	}

	for _, fi := range funcs {
		c.checkFunc(fi.Decl)
	}

	fact := Fact{Sends: make(map[string]string)}
	for fn, why := range c.summary {
		if fn.Exported() {
			fact.Sends[analysis.FuncName(fn)] = why
		}
	}
	return fact, nil
}

type checkerState struct {
	pass     *analysis.Pass
	markers  *analysis.Markers
	decls    map[*types.Func]*ast.FuncDecl
	summary  map[*types.Func]string // non-empty: why this function "sends"
	depFacts map[string]*Fact
}

func (c *checkerState) depSends(pkgPath, name string) string {
	f, ok := c.depFacts[pkgPath]
	if !ok {
		f = new(Fact)
		if !c.pass.ImportFact(pkgPath, f) {
			f = &Fact{}
		}
		c.depFacts[pkgPath] = f
	}
	return f.Sends[name]
}

// classifyCall describes what call does if it is one of the flagged
// operations: a func-value callback, a module-interface method call, or
// a (possibly cross-package) call to a function that transitively sends.
func (c *checkerState) classifyCall(call *ast.CallExpr) string {
	info := c.pass.TypesInfo

	if fn := analysis.StaticCallee(info, call); fn != nil {
		if fn.Pkg() == c.pass.Pkg {
			if why := c.summary[fn]; why != "" {
				return "call to " + analysis.FuncName(fn) + ", which " + why
			}
			return ""
		}
		if fn.Pkg() != nil && c.pass.InModule(fn.Pkg().Path()) {
			if why := c.depSends(fn.Pkg().Path(), analysis.FuncName(fn)); why != "" {
				return "call to " + fn.Pkg().Name() + "." + fn.Name() + ", which " + why
			}
		}
		return ""
	}

	// Not a static call: conversion, builtin, func value, or interface.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return ""
	}
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return ""
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recv := s.Recv()
			if types.IsInterface(recv) {
				if n, ok := recv.(*types.Named); ok {
					if pkg := n.Obj().Pkg(); pkg != nil && c.pass.InModule(pkg.Path()) {
						return "calls " + n.Obj().Name() + "." + sel.Sel.Name + " through a module interface"
					}
				}
				return "" // stdlib interface (io.Writer, error, ...)
			}
		}
	}
	if t := info.TypeOf(call.Fun); t != nil {
		if _, ok := t.Underlying().(*types.Signature); ok {
			return "calls a func-typed value (callback)"
		}
	}
	return ""
}

// bodySends scans a whole body (ignoring lock state) for the first
// flagged operation, for the transitive summary.
func (c *checkerState) bodySends(decl *ast.FuncDecl) string {
	why := ""
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			why = "performs a channel send"
			return false
		case *ast.CallExpr:
			if w := c.classifyCall(n); w != "" {
				why = w
				return false
			}
		}
		return true
	})
	return why
}

// mutexMethod resolves call as a sync.Mutex/RWMutex method invocation,
// returning the method name and the receiver expression's text.
func (c *checkerState) mutexMethod(call *ast.CallExpr) (name, recv string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		return fn.Name(), types.ExprString(sel.X)
	}
	return "", ""
}

func (c *checkerState) checkFunc(decl *ast.FuncDecl) {
	c.walkStmts(decl.Body.List, make(map[string]bool))
}

func (c *checkerState) heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// walkStmts runs the statement list in order, mutating held as locks
// are taken and released; branches recurse on a copy so a conditional
// unlock cannot leak out of its branch.
func (c *checkerState) walkStmts(stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				switch name, recv := c.mutexMethod(call); name {
				case "Lock", "RLock":
					c.checkExpr(s.X, held) // args evaluated before the lock
					held[recv] = true
					continue
				case "Unlock", "RUnlock":
					delete(held, recv)
					continue
				}
			}
			c.checkExpr(s.X, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the region open to function end;
			// any other deferred call runs after the region, unchecked.
			if name, _ := c.mutexMethod(s.Call); name == "" {
				c.checkExpr(s.Call, held)
			}
		case *ast.IfStmt:
			if s.Init != nil {
				c.walkStmts([]ast.Stmt{s.Init}, held)
			}
			c.checkExpr(s.Cond, held)
			c.walkStmts(s.Body.List, copyHeld(held))
			if s.Else != nil {
				c.walkStmts([]ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.BlockStmt:
			c.walkStmts(s.List, copyHeld(held))
		case *ast.ForStmt:
			if s.Init != nil {
				c.walkStmts([]ast.Stmt{s.Init}, held)
			}
			if s.Cond != nil {
				c.checkExpr(s.Cond, held)
			}
			inner := copyHeld(held)
			c.walkStmts(s.Body.List, inner)
			if s.Post != nil {
				c.walkStmts([]ast.Stmt{s.Post}, inner)
			}
		case *ast.RangeStmt:
			c.checkExpr(s.X, held)
			c.walkStmts(s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			if s.Init != nil {
				c.walkStmts([]ast.Stmt{s.Init}, held)
			}
			if s.Tag != nil {
				c.checkExpr(s.Tag, held)
			}
			for _, cc := range s.Body.List {
				if clause, ok := cc.(*ast.CaseClause); ok {
					c.walkStmts(clause.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range s.Body.List {
				if clause, ok := cc.(*ast.CaseClause); ok {
					c.walkStmts(clause.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				if clause, ok := cc.(*ast.CommClause); ok {
					if clause.Comm != nil {
						c.walkStmts([]ast.Stmt{clause.Comm}, copyHeld(held))
					}
					c.walkStmts(clause.Body, copyHeld(held))
				}
			}
		case *ast.SendStmt:
			c.flagSend(s, held)
			c.checkExpr(s.Value, held)
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				c.checkExpr(r, held)
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				c.checkExpr(r, held)
			}
		case *ast.GoStmt:
			// The spawned goroutine runs without the caller's locks; the
			// spawn itself doesn't block.
		case *ast.LabeledStmt:
			c.walkStmts([]ast.Stmt{s.Stmt}, held)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							c.checkExpr(v, held)
						}
					}
				}
			}
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (c *checkerState) flagSend(s *ast.SendStmt, held map[string]bool) {
	if len(held) == 0 || c.markers.EscapedAt(s.Pos(), escape) {
		return
	}
	c.pass.Reportf(s.Pos(), "channel send while holding %s (a blocked receiver pins the lock)", c.heldNames(held))
}

// checkExpr flags offending calls in an expression evaluated under the
// current lock set. Function literals are skipped: their bodies run
// when invoked, and the invocation is what gets flagged.
func (c *checkerState) checkExpr(e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if why := c.classifyCall(n); why != "" && !c.markers.EscapedAt(n.Pos(), escape) {
				c.pass.Reportf(n.Pos(), "%s while holding %s", why, c.heldNames(held))
			}
		}
		return true
	})
}
