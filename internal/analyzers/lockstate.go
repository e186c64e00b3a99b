// This file tracks which sync mutexes are held at each point of a function
// body, for the passes that enforce lock-discipline invariants (lockio,
// epochpin).
//
// The tracking is a conservative source-order walk, not a full control-flow
// analysis: a Lock() adds the mutex, a same-level Unlock() removes it, a
// deferred Unlock() keeps it held to the end of the function, and nested
// blocks see a copy of the enclosing set so an early-unlock-and-return
// branch does not clear the mutex for the code after it. Function literals
// start empty — a closure or goroutine body runs under its own discipline.
// The approximation errs toward "held", which for deadlock- and
// guarded-field-checking is the safe direction.

package analyzers

import (
	"go/ast"
	"go/types"
	"maps"
)

// heldSet is the set of held mutexes, keyed by the rendered receiver
// expression ("c.mu", "m.sendMu"). A key's value is true when only the read
// half is held (RLock), false under Lock.
type heldSet map[string]bool

// walkHeld traverses body in source order and calls visit for every
// expression node with the set of mutexes held at that point. visit must
// not retain the set; it is mutated as the walk proceeds.
func walkHeld(info *types.Info, body *ast.BlockStmt, visit func(n ast.Node, held heldSet)) {
	walkStmts(info, body.List, make(heldSet), visit)
}

// walkStmts processes a statement list against a mutable held set.
func walkStmts(info *types.Info, stmts []ast.Stmt, held heldSet, visit func(ast.Node, heldSet)) {
	for _, s := range stmts {
		walkStmt(info, s, held, visit)
	}
}

func walkStmt(info *types.Info, s ast.Stmt, held heldSet, visit func(ast.Node, heldSet)) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, lock, read, ok := mutexOp(info, s.X); ok {
			if lock {
				held[key] = read
			} else {
				delete(held, key)
			}
			return
		}
		visitExprs(info, s.X, held, visit)
	case *ast.DeferStmt:
		// defer x.Unlock() pins x held for the rest of the function.
		if _, lock, _, ok := mutexOp(info, s.Call); ok && !lock {
			return
		}
		visitExprs(info, s.Call, held, visit)
	case *ast.GoStmt:
		visitExprs(info, s.Call, held, visit)
	case *ast.BlockStmt:
		walkStmts(info, s.List, maps.Clone(held), visit)
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(info, s.Init, held, visit)
		}
		visitExprs(info, s.Cond, held, visit)
		walkStmts(info, s.Body.List, maps.Clone(held), visit)
		if s.Else != nil {
			walkStmt(info, s.Else, maps.Clone(held), visit)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(info, s.Init, held, visit)
		}
		if s.Cond != nil {
			visitExprs(info, s.Cond, held, visit)
		}
		if s.Post != nil {
			walkStmt(info, s.Post, maps.Clone(held), visit)
		}
		walkStmts(info, s.Body.List, maps.Clone(held), visit)
	case *ast.RangeStmt:
		visitExprs(info, s.X, held, visit)
		walkStmts(info, s.Body.List, maps.Clone(held), visit)
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(info, s.Init, held, visit)
		}
		if s.Tag != nil {
			visitExprs(info, s.Tag, held, visit)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					visitExprs(info, e, held, visit)
				}
				walkStmts(info, cc.Body, maps.Clone(held), visit)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			walkStmt(info, s.Init, held, visit)
		}
		walkStmt(info, s.Assign, held, visit)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(info, cc.Body, maps.Clone(held), visit)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := maps.Clone(held)
				if cc.Comm != nil {
					walkStmt(info, cc.Comm, inner, visit)
				}
				walkStmts(info, cc.Body, inner, visit)
			}
		}
	case *ast.LabeledStmt:
		walkStmt(info, s.Stmt, held, visit)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			visitExprs(info, e, held, visit)
		}
		for _, e := range s.Lhs {
			visitExprs(info, e, held, visit)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			visitExprs(info, e, held, visit)
		}
	case *ast.DeclStmt:
		visitExprs(info, s, held, visit)
	case *ast.IncDecStmt:
		visitExprs(info, s.X, held, visit)
	case *ast.SendStmt:
		visitExprs(info, s.Chan, held, visit)
		visitExprs(info, s.Value, held, visit)
	}
}

// visitExprs reports every node under n with the current held set, walking
// function-literal bodies with a fresh empty set (their code runs under its
// own lock discipline, often on another goroutine).
func visitExprs(info *types.Info, n ast.Node, held heldSet, visit func(ast.Node, heldSet)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			walkStmts(info, lit.Body.List, make(heldSet), visit)
			return false
		}
		if n != nil {
			visit(n, held)
		}
		return true
	})
}

// mutexOp reports whether e is a Lock/RLock (lock=true) or Unlock/RUnlock
// (lock=false) call on a sync.Mutex or sync.RWMutex, whether it is the read
// half (RLock/RUnlock), and the rendered receiver key ("c.mu").
func mutexOp(info *types.Info, e ast.Expr) (key string, lock, read, ok bool) {
	call, okc := e.(*ast.CallExpr)
	if !okc {
		return "", false, false, false
	}
	sel, oks := call.Fun.(*ast.SelectorExpr)
	if !oks {
		return "", false, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		lock = true
	case "RLock":
		lock, read = true, true
	case "Unlock":
		lock = false
	case "RUnlock":
		read = true
	default:
		return "", false, false, false
	}
	if !isSyncMutex(info.TypeOf(sel.X)) {
		return "", false, false, false
	}
	key = exprString(sel.X)
	if key == "" {
		return "", false, false, false
	}
	return key, lock, read, true
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly via
// pointer).
func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// exprString renders a selector chain of identifiers ("c.cache.mu");
// anything more complex (calls, indexes) renders as "".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return ""
}
