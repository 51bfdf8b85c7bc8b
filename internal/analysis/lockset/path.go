// Package lockset is the shared substrate of the flow-sensitive
// analyzers (guardedby, lockorder): canonical lock identities, the
// //lockcheck: guard/contract annotation model with cross-package fact
// encoding, and a must-lockset dataflow over internal/analysis/cfg
// graphs that understands Lock/Unlock, TryLock success branches,
// LockContext nil-error branches, lockword CAS/Store protocols, and
// defer lowering.
//
// A lock is identified two ways at once:
//
//   - a Path — a chain of field selections rooted at a variable
//     (l.outer, d.mu, s.pool), with single-assignment local aliases
//     substituted so `mu := &s.mu; mu.Lock()` and `s.mu.Unlock()` name
//     the same lock. Paths are exact within one function: holding
//     a.mu says nothing about b.mu.
//   - a Class — the global name of the lock's declaration site
//     ("shard.stripe.mu", "semaphore.Semaphore"), used where exact
//     identity cannot cross a boundary: lock-order edges, class-form
//     guards, and accesses whose base expression is not a plain path.
package lockset

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A Path is one lock's identity inside one function: a root variable
// plus a chain of field names selected from it.
type Path struct {
	Root *types.Var
	Sel  []string
}

// Key is the path's identity within one function analysis. Root
// positions are unique per object in a run, which is all the dataflow
// needs (keys never cross a function boundary).
func (p Path) Key() string {
	if len(p.Sel) == 0 {
		return fmt.Sprintf("%s@%d", p.Root.Name(), p.Root.Pos())
	}
	return fmt.Sprintf("%s@%d.%s", p.Root.Name(), p.Root.Pos(), strings.Join(p.Sel, "."))
}

// String renders the path for diagnostics: "d.mu", "l.outer".
func (p Path) String() string {
	if len(p.Sel) == 0 {
		return p.Root.Name()
	}
	return p.Root.Name() + "." + strings.Join(p.Sel, ".")
}

// Extend returns the path with extra selection segments appended.
func (p Path) Extend(segs ...string) Path {
	sel := make([]string, 0, len(p.Sel)+len(segs))
	sel = append(sel, p.Sel...)
	sel = append(sel, segs...)
	return Path{Root: p.Root, Sel: sel}
}

// Class computes the path's global class name, or "" when the path has
// none. A field-terminated path is classed by its declaring struct:
// "shard.stripe.mu". A bare variable is classed by its named type:
// "semaphore.Semaphore" — except for the stdlib sync types, whose
// instances are too many and too unrelated for a shared global name to
// mean anything in a lock-order graph.
func (p Path) Class() string {
	if len(p.Sel) == 0 {
		named := namedOf(p.Root.Type())
		if named == nil || named.Obj().Pkg() == nil {
			return ""
		}
		pkg := named.Obj().Pkg()
		if pkg.Path() == "sync" || pkg.Path() == "sync/atomic" {
			return ""
		}
		return pkgShort(pkg) + "." + named.Obj().Name()
	}
	t := p.Root.Type()
	class := ""
	for _, fname := range p.Sel {
		named := namedOf(t)
		st := structOf(t)
		if st == nil {
			return ""
		}
		f := fieldByName(st, fname)
		if f == nil {
			return ""
		}
		if named != nil && named.Obj().Pkg() != nil {
			class = pkgShort(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + fname
		} else {
			class = ""
		}
		t = f.Type()
	}
	return class
}

// FieldClass names a field by its declaring struct ("shard.stripe.mu"),
// or "" when the field is not declared on a named struct of a named
// package. This is the class an access through a non-path base (a call
// result, a map index) is checked against.
func FieldClass(field *types.Var) string {
	owner := fieldOwner(field)
	if owner == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	return pkgShort(owner.Obj().Pkg()) + "." + owner.Obj().Name() + "." + field.Name()
}

// fieldOwner finds the named struct type declaring the field, by
// scanning the field's package scope (go/types gives no back-pointer).
func fieldOwner(field *types.Var) *types.Named {
	pkg := field.Pkg()
	if pkg == nil {
		return nil
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return named
			}
		}
	}
	return nil
}

// namedOf unwraps pointers and aliases to the named type, if any.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// structOf unwraps pointers/named/aliases to the struct type, if any.
func structOf(t types.Type) *types.Struct {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func fieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

func pkgShort(pkg *types.Package) string {
	path := pkg.Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// resolver canonicalizes expressions to Paths within one function,
// looking through a precomputed single-assignment alias map.
type resolver struct {
	info     *types.Info
	aliases  map[*types.Var]ast.Expr // single-assignment local → its defining expr
	inFlight map[*types.Var]bool     // cycle guard during alias resolution
}

// pathOf resolves an expression to a canonical lock path. It follows
// parens, &x (a lock and its address are the same lock), *x, chains of
// field selections (including promoted fields, via the selection
// index), qualified package variables, and single-assignment local
// aliases. Anything else — calls, index expressions, literals — has no
// path.
func (r *resolver) pathOf(e ast.Expr) (Path, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return r.pathOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return r.pathOf(e.X)
		}
	case *ast.StarExpr:
		return r.pathOf(e.X)
	case *ast.Ident:
		v, ok := r.info.Uses[e].(*types.Var)
		if !ok {
			if v, ok = r.info.Defs[e].(*types.Var); !ok {
				return Path{}, false
			}
		}
		if def, isAlias := r.aliases[v]; isAlias && !r.inFlight[v] {
			if r.inFlight == nil {
				r.inFlight = make(map[*types.Var]bool)
			}
			r.inFlight[v] = true
			p, ok := r.pathOf(def)
			delete(r.inFlight, v)
			if ok {
				return p, true
			}
		}
		return Path{Root: v}, true
	case *ast.SelectorExpr:
		if sel := r.info.Selections[e]; sel != nil {
			if sel.Kind() != types.FieldVal {
				return Path{}, false
			}
			base, ok := r.pathOf(e.X)
			if !ok {
				return Path{}, false
			}
			// Walk the selection index so promoted (embedded) fields
			// contribute every hop's name.
			t := sel.Recv()
			segs := make([]string, 0, len(sel.Index()))
			for _, idx := range sel.Index() {
				st := structOf(t)
				if st == nil || idx >= st.NumFields() {
					return Path{}, false
				}
				f := st.Field(idx)
				segs = append(segs, f.Name())
				t = f.Type()
			}
			return base.Extend(segs...), true
		}
		// Qualified identifier: otherpkg.Var.
		if v, ok := r.info.Uses[e.Sel].(*types.Var); ok && !v.IsField() {
			return Path{Root: v}, true
		}
	}
	return Path{}, false
}

// collectAliases scans a function body for single-assignment locals
// whose initializer is (the address of) another expression — the
// "guard aliased through a local" pattern. A variable assigned more
// than once, or captured for writing, is its own root.
func collectAliases(info *types.Info, body *ast.BlockStmt) map[*types.Var]ast.Expr {
	def := make(map[*types.Var]ast.Expr)
	writes := make(map[*types.Var]int)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var v *types.Var
				if d, ok := info.Defs[id].(*types.Var); ok {
					v = d
				} else if u, ok := info.Uses[id].(*types.Var); ok {
					v = u
				}
				if v == nil {
					continue
				}
				writes[v]++
				if len(n.Rhs) == len(n.Lhs) {
					def[v] = n.Rhs[i]
				} else {
					def[v] = nil // multi-value unpacking: not an alias
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				v, ok := info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				writes[v]++
				if i < len(n.Values) && len(n.Values) == len(n.Names) {
					def[v] = n.Values[i]
				} else {
					def[v] = nil
				}
			}
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if lhs == nil {
					continue
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v, ok := info.Defs[id].(*types.Var); ok {
						writes[v]++
						def[v] = nil
					} else if v, ok := info.Uses[id].(*types.Var); ok {
						writes[v]++
						def[v] = nil
					}
				}
			}
		}
		return true
	})
	out := make(map[*types.Var]ast.Expr)
	for v, e := range def {
		if e == nil || writes[v] != 1 {
			continue
		}
		// Only alias-shaped initializers: &path, path, *path. A call
		// result is a fresh value, not an alias of an existing lock.
		if aliasShaped(e) {
			out[v] = e
		}
	}
	return out
}

// aliasShaped reports whether e syntactically denotes an existing
// location (so copying it aliases a lock) rather than producing a new
// value.
func aliasShaped(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return aliasShaped(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && aliasShaped(e.X)
	case *ast.StarExpr:
		return aliasShaped(e.X)
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return aliasShaped(e.X)
	}
	return false
}
