package analyzers

import (
	"go/ast"
	"go/types"
)

// ctxflow keeps cancellation flowing: library code must thread the caller's
// context to every downstream wire call rather than minting its own.
// Outside package main, context.Background() and context.TODO() are
// findings — a search that invents a fresh context cannot be cancelled by
// the caller that started it. The one structural exception is the
// nil-guard at an exported boundary:
//
//	if ctx == nil {
//		ctx = context.Background()
//	}
//
// A context.Context parameter that the function never reads is also a
// finding: it advertises cancellation it does not deliver.
func ctxflow(p *pass) {
	if p.pkg.Name() == "main" {
		return // binaries own their root context
	}
	for _, f := range p.files {
		exempt := nilGuardCalls(p, f)
		checkFreshContexts(p, f, exempt)
		checkUnusedParams(p, f)
	}
}

// nilGuardCalls collects the context.Background()/TODO() calls inside the
// blessed `if ctx == nil { ctx = context.Background() }` shape.
func nilGuardCalls(p *pass, f *ast.File) map[*ast.CallExpr]bool {
	exempt := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || !isNilCheck(p.info, cond) {
			return true
		}
		for _, stmt := range ifs.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok {
				continue
			}
			for _, rhs := range as.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && freshContextCall(p.info, call) != "" {
					exempt[call] = true
				}
			}
		}
		return true
	})
	return exempt
}

// isNilCheck reports whether cond compares a context.Context against nil.
func isNilCheck(info *types.Info, cond *ast.BinaryExpr) bool {
	var other ast.Expr
	switch {
	case isNilIdent(cond.X):
		other = cond.Y
	case isNilIdent(cond.Y):
		other = cond.X
	default:
		return false
	}
	return isContextType(info.TypeOf(other))
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func checkFreshContexts(p *pass, f *ast.File, exempt map[*ast.CallExpr]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || exempt[call] {
			return true
		}
		if name := freshContextCall(p.info, call); name != "" {
			p.reportf(call.Pos(), "%s in a library path severs cancellation; thread the caller's ctx instead", name)
		}
		return true
	})
}

// freshContextCall returns "context.Background" or "context.TODO" if call
// is one of them, else "".
func freshContextCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return "context." + fn.Name()
	}
	return ""
}

// checkUnusedParams flags functions that accept a context.Context and never
// read it.
func checkUnusedParams(p *pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || len(fn.Body.List) == 0 || fn.Type.Params == nil {
			continue
		}
		for _, field := range fn.Type.Params.List {
			if !isContextType(p.info.TypeOf(field.Type)) {
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				obj := p.info.Defs[name]
				if obj == nil {
					continue
				}
				if !objUsed(p.info, fn.Body, obj) {
					p.reportf(name.Pos(), "ctx parameter %s is never used: the function advertises cancellation it does not deliver", name.Name)
				}
			}
		}
	}
}

func objUsed(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	return used
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
