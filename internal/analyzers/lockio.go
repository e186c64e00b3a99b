package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// lockio forbids blocking wire I/O while a mutex is held: no Mux.Roundtrip
// and no link Send under any sync.Mutex or sync.RWMutex. A roundtrip parks
// the caller until a remote station answers; holding a cluster or
// summaryCache mutex across that wait is the deadlock-by-distance class the
// routing generation guard exists to avoid — every such wait must happen on
// a pinned snapshot outside the critical section.
//
// The two deliberate exceptions in the tree (Mux.Send serializing frames
// under its own sendMu, and Roundtrip's send goroutine doing the same)
// carry //dimatch:allow lockio suppressions with rationale.
func lockio(p *pass) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			walkHeld(p.info, fn.Body, func(n ast.Node, held heldSet) {
				if len(held) == 0 {
					return
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if what := blockingIO(p.info, call); what != "" {
					p.reportf(call.Pos(), "%s while %s is held: a blocked peer would wedge every goroutine waiting on the mutex", what, heldNames(held))
				}
			})
		}
	}
}

// blockingIO classifies a call as forbidden-under-lock wire I/O: any
// Roundtrip method, or a Send method on a Mux or on a link
// (an interface that also declares Recv).
func blockingIO(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return ""
	}
	recv := selection.Recv()
	switch sel.Sel.Name {
	case "Roundtrip":
		return "call to " + typeName(recv) + "." + sel.Sel.Name
	case "Send":
		if isMux(recv) || isLinkInterface(recv) {
			return "call to " + typeName(recv) + ".Send"
		}
	}
	return ""
}

func isMux(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Mux"
}

// isLinkInterface reports whether t is an interface declaring both Send and
// Recv — the shape of a wire link, whose Send may block on a full pipe.
func isLinkInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	var send, recv bool
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Send":
			send = true
		case "Recv":
			recv = true
		}
	}
	return send && recv
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func heldNames(held heldSet) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names) // deterministic order for multi-mutex messages
	return strings.Join(names, ", ")
}
