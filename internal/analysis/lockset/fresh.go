package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
)

// collectFresh finds locals initialized from a composite literal —
// objects this function created and has not yet published. Accesses to
// a fresh object's guarded fields before its publication point need no
// guard: no other goroutine can reach the object (the constructor
// idiom: build the object, fill it in, then publish it).
//
// Publication is the first position where the variable itself (or its
// address) flows somewhere other than a field selection: a call
// argument, a return value, an assignment's right side, a composite
// literal element, a channel send. Selecting fields and calling
// methods through a selector do not publish; nor does a closure
// capturing the variable (the closure inherits the creation-point
// view; the tracked store is still the publication).
//
// The result maps each fresh local to its earliest publication
// position, token.NoPos when it is never published.
func collectFresh(info *types.Info, body *ast.BlockStmt) map[*types.Var]token.Pos {
	candidates := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.Defs[id].(*types.Var)
			if !ok {
				return true
			}
			if isCompositeInit(n.Rhs[0]) {
				candidates[v] = true
			}
		case *ast.ValueSpec:
			if len(n.Names) == 1 && len(n.Values) == 1 && isCompositeInit(n.Values[0]) {
				if v, ok := info.Defs[n.Names[0]].(*types.Var); ok {
					candidates[v] = true
				}
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return nil
	}

	fresh := make(map[*types.Var]token.Pos, len(candidates))
	for v := range candidates {
		fresh[v] = token.NoPos
	}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && candidates[v] {
				if escapes(stack, id) {
					if cur, ok := fresh[v]; ok && (cur == token.NoPos || id.Pos() < cur) {
						fresh[v] = id.Pos()
					}
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return fresh
}

func isCompositeInit(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

// escapes reports whether the identifier use, in its syntactic
// context, publishes the object. Climbing out of parens, & and *:
// only a field/method selection keeps the object private.
func escapes(stack []ast.Node, id *ast.Ident) bool {
	child := ast.Node(id)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.StarExpr:
			child = p
			continue
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				child = p
				continue
			}
			return true
		case *ast.SelectorExpr:
			// v.field / v.Method(): not a publication.
			return p.X != child
		case *ast.AssignStmt:
			// Writing INTO the object (v.f = x has a SelectorExpr parent,
			// handled above); v on an RHS, or reassigned, publishes.
			return true
		default:
			return true
		}
	}
	return true
}
