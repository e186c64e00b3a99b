package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// wirekind enforces the wire-protocol dispatch invariants (docs/WIRE.md).
//
// In every package, a switch over a Kind-typed value must carry a default
// clause, so a newly added kind falls into explicit unknown-handling instead
// of being silently dropped; and the error result of a wire Encode*/Decode*
// call must not be discarded. (That every Kind constant has a Kind.String
// case is pinned at runtime by internal/wire/sync_test.go.)
func wirekind(p *pass) {
	checkSwitches(p)
	checkDiscardedErrors(p)
}

// checkSwitches requires a default clause on every switch over a Kind-typed
// value, in any package.
func checkSwitches(p *pass) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named, ok := p.info.TypeOf(sw.Tag).(*types.Named)
			if !ok || named.Obj().Name() != "Kind" {
				return true
			}
			if basic, ok := named.Underlying().(*types.Basic); !ok || basic.Info()&types.IsInteger == 0 {
				return true
			}
			for _, c := range sw.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
					return true // has default
				}
			}
			p.reportf(sw.Pos(), "switch over %s.Kind without a default: an unknown kind would be silently dropped", named.Obj().Pkg().Name())
			return true
		})
	}
}

// checkDiscardedErrors flags wire Encode*/Decode* calls whose error result
// is dropped, either by using the call as a statement or by assigning the
// error position to the blank identifier.
func checkDiscardedErrors(p *pass) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && codecErrIndex(p, call) >= 0 {
					p.reportf(call.Pos(), "result of %s is discarded: a codec error would go unnoticed", codecName(call))
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				i := codecErrIndex(p, call)
				if i < 0 || i >= len(n.Lhs) {
					return true
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					p.reportf(call.Pos(), "error result of %s is assigned to _: a codec error would go unnoticed", codecName(call))
				}
			}
			return true
		})
	}
}

// codecErrIndex returns the index of the error result if call is a wire
// Encode*/Decode* function returning an error, else -1.
func codecErrIndex(p *pass, call *ast.CallExpr) int {
	name := codecName(call)
	if !strings.HasPrefix(name, "Encode") && !strings.HasPrefix(name, "Decode") {
		return -1
	}
	var obj types.Object
	switch fun := codecFun(call).(type) {
	case *ast.Ident:
		obj = p.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "wire" {
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" {
			return i
		}
	}
	return -1
}

// codecFun is the called function's expression, without the type arguments
// of an explicitly instantiated generic codec (wire.DecodeRows[[]int32]).
func codecFun(call *ast.CallExpr) ast.Expr {
	switch fun := call.Fun.(type) {
	case *ast.IndexExpr:
		return fun.X
	case *ast.IndexListExpr:
		return fun.X
	}
	return call.Fun
}

func codecName(call *ast.CallExpr) string {
	switch fun := codecFun(call).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
