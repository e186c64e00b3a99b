// Package lockstate tracks which sync mutexes are held at each point of a
// function body, for analyzers that enforce lock-discipline invariants
// (lockio, epochpin).
//
// The tracking is a conservative source-order walk, not a full control-flow
// analysis: a Lock() adds the mutex, a same-level Unlock() removes it, a
// deferred Unlock() keeps it held to the end of the function, and nested
// blocks see a copy of the enclosing set so an early-unlock-and-return
// branch does not clear the mutex for the code after it. Function literals
// start empty — a closure or goroutine body runs under its own discipline.
// The approximation errs toward "held", which for deadlock- and
// guarded-field-checking is the safe direction.
package lockstate

import (
	"go/ast"
	"go/types"
)

// Set is the set of held mutexes, keyed by the rendered receiver expression
// ("c.mu", "m.sendMu"). ReadOnly reports whether only the read half is held.
type Set map[string]bool

// Held reports whether the mutex named by expr (e.g. "c.mu") is held.
func (s Set) Held(expr string) bool { return s[expr] }

// clone returns an independent copy.
func (s Set) clone() Set {
	out := make(Set, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Walk traverses body in source order and calls visit for every expression
// node with the set of mutexes held at that point. visit must not retain the
// set; it is mutated as the walk proceeds.
func Walk(info *types.Info, body *ast.BlockStmt, visit func(n ast.Node, held Set)) {
	if body == nil {
		return
	}
	walkStmts(info, body.List, make(Set), visit)
}

// walkStmts processes a statement list against a mutable held set.
func walkStmts(info *types.Info, stmts []ast.Stmt, held Set, visit func(ast.Node, Set)) {
	for _, s := range stmts {
		walkStmt(info, s, held, visit)
	}
}

func walkStmt(info *types.Info, s ast.Stmt, held Set, visit func(ast.Node, Set)) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, lock, ok := mutexOp(info, s.X); ok {
			if lock {
				held[key] = true
			} else {
				delete(held, key)
			}
			return
		}
		visitExprs(info, s.X, held, visit)
	case *ast.DeferStmt:
		// defer x.Unlock() pins x held for the rest of the function.
		if _, lock, ok := mutexOp(info, s.Call); ok && !lock {
			return
		}
		visitExprs(info, s.Call, held, visit)
	case *ast.GoStmt:
		visitExprs(info, s.Call, held, visit)
	case *ast.BlockStmt:
		walkStmts(info, s.List, held.clone(), visit)
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(info, s.Init, held, visit)
		}
		visitExprs(info, s.Cond, held, visit)
		walkStmts(info, s.Body.List, held.clone(), visit)
		if s.Else != nil {
			walkStmt(info, s.Else, held.clone(), visit)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(info, s.Init, held, visit)
		}
		if s.Cond != nil {
			visitExprs(info, s.Cond, held, visit)
		}
		if s.Post != nil {
			walkStmt(info, s.Post, held.clone(), visit)
		}
		walkStmts(info, s.Body.List, held.clone(), visit)
	case *ast.RangeStmt:
		visitExprs(info, s.X, held, visit)
		walkStmts(info, s.Body.List, held.clone(), visit)
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
				walkStmts(info, cc.Body, held.clone(), visit)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			walkStmt(info, s.Init, held, visit)
		}
		walkStmt(info, s.Assign, held, visit)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(info, cc.Body, held.clone(), visit)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := held.clone()
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
func visitExprs(info *types.Info, n ast.Node, held Set, visit func(ast.Node, Set)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			walkStmts(info, lit.Body.List, make(Set), visit)
			return false
		}
		if n != nil {
			visit(n, held)
		}
		return true
	})
}

// mutexOp reports whether e is a Lock/RLock (lock=true) or Unlock/RUnlock
// (lock=false) call on a sync.Mutex or sync.RWMutex, and the rendered
// receiver key ("c.mu").
func mutexOp(info *types.Info, e ast.Expr) (key string, lock, ok bool) {
	call, okc := e.(*ast.CallExpr)
	if !okc {
		return "", false, false
	}
	sel, oks := call.Fun.(*ast.SelectorExpr)
	if !oks {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		lock = false
	default:
		return "", false, false
	}
	if !isSyncMutex(info.TypeOf(sel.X)) {
		return "", false, false
	}
	key = ExprString(sel.X)
	if key == "" {
		return "", false, false
	}
	return key, lock, true
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

// ExprString renders a selector chain of identifiers ("c.cache.mu");
// anything more complex (calls, indexes) renders as "".
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := ExprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(e.X)
	}
	return ""
}
