// Package epochpin enforces the epoch-pinning invariant from
// ARCHITECTURE.md: cluster search and routing code must work against a
// pinned membership snapshot, never against the live mutable fields.
//
// Mechanically this is a guarded-field discipline. A struct field annotated
//
//	ep *epoch // dimatch:guardedby mu
//
// may only be read or written while the named sibling mutex of the same
// receiver is held (per the lockstate tracker). Search paths hold no
// cluster mutex, so the rule forces them through the snapshot handed to
// them — exactly the paper's requirement that one search sees one
// consistent membership. Two constructor shapes are exempt: functions whose
// name ends in "Locked" (the repo's convention for callers-hold-the-lock
// helpers) and accesses through a local variable initialized from a
// composite literal in the same function (the value is not yet shared).
package epochpin

import (
	"go/ast"
	"go/types"
	"strings"

	"dimatch/internal/analyzers/analysis"
	"dimatch/internal/analyzers/lockstate"
)

// Analyzer is the epochpin pass.
var Analyzer = &analysis.Analyzer{
	Name: "epochpin",
	Doc:  "check that dimatch:guardedby fields are only touched with their mutex held",
	Run:  run,
}

const marker = "dimatch:guardedby "

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue // single-goroutine test setup may stage fields directly
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			checkFunc(pass, fn, guards)
		}
	}
	return nil
}

// collectGuards maps each annotated struct field object to the name of the
// mutex field guarding it.
func collectGuards(pass *analysis.Pass) map[types.Object]string {
	guards := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutex := guardName(field)
				if mutex == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = mutex
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardName extracts the mutex field name from a field's doc or line
// comment.
func guardName(field *ast.Field) string {
	for _, group := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if group == nil {
			continue
		}
		for _, c := range group.List {
			if i := strings.Index(c.Text, marker); i >= 0 {
				rest := strings.TrimSpace(c.Text[i+len(marker):])
				if j := strings.IndexAny(rest, " \t"); j >= 0 {
					rest = rest[:j]
				}
				return rest
			}
		}
	}
	return ""
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, guards map[types.Object]string) {
	fresh := freshLocals(pass.TypesInfo, fn)
	lockstate.Walk(pass.TypesInfo, fn.Body, func(n ast.Node, held lockstate.Set) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return
		}
		mutex, guarded := guards[fieldObj(selection)]
		if !guarded {
			return
		}
		base := lockstate.ExprString(sel.X)
		if base == "" {
			// Access through a call result or index expression: the tracker
			// cannot name the mutex; err toward reporting so the access gets
			// an explicit suppression with a rationale.
			pass.Reportf(sel.Pos(), "field %s is guarded by %s but the receiver is not a simple variable; hold the mutex and simplify the access", sel.Sel.Name, mutex)
			return
		}
		if rootIdent, ok := rootOf(sel.X); ok && fresh[pass.TypesInfo.ObjectOf(rootIdent)] {
			return // freshly constructed local, not yet shared
		}
		if !held.Held(base + "." + mutex) {
			pass.Reportf(sel.Pos(), "field %s.%s is guarded by %s.%s which is not held here; pin a snapshot or lock first", base, sel.Sel.Name, base, mutex)
		}
	})
}

// fieldObj returns the types object of the selected field.
func fieldObj(sel *types.Selection) types.Object { return sel.Obj() }

// rootOf returns the leftmost identifier of a selector chain.
func rootOf(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// freshLocals collects local variables initialized from composite literals
// (c := &Cluster{...}): values still private to the constructor, whose
// guarded fields may be set without the lock.
func freshLocals(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isCompositeLit(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func isCompositeLit(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = u.X
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}
