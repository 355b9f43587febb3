package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ViewEscape flags zero-copy CSR views escaping into long-lived storage.
//
// graph.Graph.Neighbors / graph.Dual.ExtraNeighbors (and the hoisted CSR /
// ExtraCSR array pairs) return views into the graph's backing arrays. The
// documented contract (internal/graph/graph.go, Neighbors) is that a view is
// only as alive as the graph it came from — and under an epoch schedule the
// live graph changes at every Revision.Apply swap, so a view stashed in a
// struct field, package variable, composite literal or closure silently goes
// stale at the next epoch boundary.
//
// The analyzer reports a view-producing call (or a local variable directly
// assigned from one) when it is stored into a struct field, a package-level
// variable, a composite literal, or captured by a function literal. Passing
// views down the call stack, copying their contents (append(dst, view...)),
// and returning them to the caller are all fine — call-scoped use is the
// contract. Sites that re-hoist views deliberately and re-sync them at every
// epoch swap (the engine) carry //dglint:allow viewescape: <reason>.
//
// The graph package itself is exempt: the views are its own storage.
var ViewEscape = &Analyzer{
	Name: "viewescape",
	Doc:  "flag zero-copy graph views stored where they could outlive an epoch swap",
	Run:  runViewEscape,
}

// viewMethodNames are the view-returning accessors of the graph API.
// BlockRow and Rows are the SparseNeighborMasks accessors: mask rows are
// per-network storage with exactly the CSR views' lifetime, so a stashed
// row goes just as stale at an epoch swap.
var viewMethodNames = map[string]bool{
	"Neighbors":      true,
	"ExtraNeighbors": true,
	"CSR":            true,
	"ExtraCSR":       true,
	"BlockRow":       true,
	"Rows":           true,
}

func runViewEscape(pass *Pass) {
	if pass.Pkg.Name() == "graph" {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkViewEscapes(pass, n.Body)
				}
				return false
			}
			return true
		})
	}
}

// isViewCall reports whether e is a call to one of the graph view accessors.
func isViewCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !viewMethodNames[sel.Sel.Name] {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	name := obj.Name()
	return (name == "Graph" || name == "Dual" || name == "SparseNeighborMasks") &&
		obj.Pkg() != nil && obj.Pkg().Name() == "graph"
}

// checkViewEscapes analyzes one function body: first a taint pass over
// locals directly assigned from view calls, then a pass flagging escapes of
// view calls or tainted locals.
func checkViewEscapes(pass *Pass, body *ast.BlockStmt) {
	// Taint pass: x := net.Neighbors(u), offs, adj := g.CSR().
	tainted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || !isViewCall(pass, as.Rhs[0]) {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var obj types.Object
			if as.Tok == token.DEFINE {
				obj = pass.TypesInfo.Defs[id]
			} else {
				obj = pass.TypesInfo.Uses[id]
			}
			// Only plain local variables taint; stores to fields and package
			// vars are flagged directly by the escape pass below.
			if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != pass.Pkg.Scope() {
				tainted[obj] = true
			}
		}
		return true
	})

	viewLike := func(e ast.Expr) bool {
		if isViewCall(pass, e) {
			return true
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return tainted[pass.TypesInfo.Uses[id]]
		}
		return false
	}

	// Escape pass.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkViewAssign(pass, n, viewLike)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if viewLike(v) {
					pass.Reportf(v.Pos(), "zero-copy graph view stored in a composite literal can outlive an epoch swap; copy it instead")
				}
			}
		case *ast.FuncLit:
			// A closure capturing a tainted local can run long after the
			// epoch that produced the view.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && tainted[pass.TypesInfo.Uses[id]] {
					pass.Reportf(id.Pos(), "zero-copy graph view %s captured by a closure can outlive an epoch swap; copy it or pass it as a parameter", id.Name)
				}
				return true
			})
			return false
		}
		return true
	})
}

// checkViewAssign flags view values assigned to struct fields or package
// variables. Tuple assignment from a single CSR() call checks every LHS.
func checkViewAssign(pass *Pass, as *ast.AssignStmt, viewLike func(ast.Expr) bool) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else {
			rhs = as.Rhs[0]
		}
		if !viewLike(rhs) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			// Field store (or qualified package var).
			pass.Reportf(as.Pos(), "zero-copy graph view stored in %s can outlive an epoch swap; re-hoist it at every swap or copy it", exprString(l))
		case *ast.Ident:
			if obj, ok := pass.TypesInfo.Uses[l].(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
				pass.Reportf(as.Pos(), "zero-copy graph view stored in package variable %s outlives every epoch swap", l.Name)
			}
		}
	}
}
