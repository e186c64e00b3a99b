package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

const guardMarker = "dimatch:guardedby "

// epochpin enforces the epoch-pinning invariant from ARCHITECTURE.md:
// cluster search and routing code must work against a pinned membership
// snapshot, never against the live mutable fields.
//
// Mechanically this is a guarded-field discipline. A struct field annotated
//
//	ep *epoch // dimatch:guardedby mu
//
// may only be read or written while the named sibling mutex of the same
// receiver is held (per the held-mutex tracker in lockstate.go), and only
// read while just its read half (RLock) is: an assignment, op-assignment,
// ++/--, index store or delete needs the write half. Search paths hold no
// cluster mutex, so the rule forces them through the snapshot handed to
// them — exactly the paper's requirement that one search sees one
// consistent membership. Two constructor shapes are exempt: functions whose
// name ends in "Locked" (the repo's convention for callers-hold-the-lock
// helpers) and accesses through a local variable initialized from a
// composite literal in the same function (the value is not yet shared).
func epochpin(p *pass) {
	guards := collectGuards(p)
	if len(guards) == 0 {
		return
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			checkFunc(p, fn, guards)
		}
	}
}

// collectGuards maps each annotated struct field object to the name of the
// mutex field guarding it.
func collectGuards(p *pass) map[types.Object]string {
	guards := make(map[types.Object]string)
	for _, f := range p.files {
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
					if obj := p.info.Defs[name]; obj != nil {
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
			if i := strings.Index(c.Text, guardMarker); i >= 0 {
				rest := strings.TrimSpace(c.Text[i+len(guardMarker):])
				if j := strings.IndexAny(rest, " \t"); j >= 0 {
					rest = rest[:j]
				}
				return rest
			}
		}
	}
	return ""
}

func checkFunc(p *pass, fn *ast.FuncDecl, guards map[types.Object]string) {
	fresh := freshLocals(p.info, fn)
	writes := writtenFields(p.info, fn.Body)
	walkHeld(p.info, fn.Body, func(n ast.Node, held heldSet) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := p.info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return
		}
		mutex, guarded := guards[selection.Obj()]
		if !guarded {
			return
		}
		base := exprString(sel.X)
		if base == "" {
			// Access through a call result or index expression: the tracker
			// cannot name the mutex; err toward reporting so the access gets
			// an explicit suppression with a rationale.
			p.reportf(sel.Pos(), "field %s is guarded by %s but the receiver is not a simple variable; hold the mutex and simplify the access", sel.Sel.Name, mutex)
			return
		}
		if rootIdent, ok := rootOf(sel.X); ok && fresh[p.info.ObjectOf(rootIdent)] {
			return // freshly constructed local, not yet shared
		}
		readOnly, ok := held[base+"."+mutex]
		if !ok {
			p.reportf(sel.Pos(), "field %s.%s is guarded by %s.%s which is not held here; pin a snapshot or lock first", base, sel.Sel.Name, base, mutex)
		} else if readOnly && writes[sel] {
			p.reportf(sel.Pos(), "field %s.%s is written while only the read half of %s.%s is held; a write needs Lock, not RLock", base, sel.Sel.Name, base, mutex)
		}
	})
}

// writtenFields collects the field selectors body stores to: the target of
// an assignment, op-assignment or ++/--, the map or slice of an index
// store, and the map of a delete.
func writtenFields(info *types.Info, body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 && info.Uses[id] == types.Universe.Lookup("delete") {
				targets = n.Args[:1]
			}
		}
		for _, e := range targets {
			if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
				e = ix.X
			}
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				out[sel] = true
			}
		}
		return true
	})
	return out
}

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
