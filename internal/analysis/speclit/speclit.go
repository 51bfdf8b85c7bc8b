// Package speclit validates constant spec strings against the live
// registries at analysis time. The module's three spec families — locks
// ("mcscr-stp?fairness=500"), store backends ("skiplist?seed=7") and
// fault sets ("stall?p=1&hold=1ms+surge?threads=64") — are parsed at
// runtime, so a typo'd spec in a composite literal or a New call is a
// production error waiting on the code path that builds it. This analyzer links
// the real packages and runs the real parsers over every constant spec
// it can see, so `go vet` fails where production would.
//
// Checked sites:
//
//   - lock.New / lock.MustNew / store.New / store.MustNew /
//     fault.New / fault.MustNew (first argument)
//   - shard.Config composite literals (LockSpec, BackendSpec fields;
//     empty means "use the default" and is fine)
//
// Only untyped/typed string constants are checked — a spec computed at
// runtime is the runtime parser's problem. In _test.go files only the
// Must* forms are checked: tests legitimately feed bad specs to New to
// exercise error paths, but a Must* call panics on them, so a bad
// constant there is a bug in any file.
//
// Because the validators are the runtime parsers themselves, the
// analyzer and the runtime cannot disagree; the fuzz suites over
// internal/spec and the family constructors keep those parsers total.
package speclit

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/fault"
	"repro/internal/analysis"
	"repro/lock"
	"repro/store"
)

// Analyzer validates constant registry specs at vet time.
var Analyzer = &analysis.Analyzer{
	Name: "speclit",
	Doc: `validate constant lock/store/fault spec strings against the live registries

A constant spec that the runtime parser would reject ("mcscr-spt?fairness=500")
fails vet instead of production. The validators are the runtime parsers
themselves, so the two cannot disagree.`,
	Run: run,
}

// validator runs the real family parser over a candidate spec.
type validator func(spec string) error

var (
	validateLock    validator = func(s string) error { _, err := lock.New(s); return err }
	validateBackend validator = func(s string) error { _, err := store.New(s); return err }
	validateFault   validator = func(s string) error { _, err := fault.New(s); return err }
)

// funcTargets maps a package-level function's full name to the spec
// validator for its first argument. Must* forms are also checked in
// test files (mustOnly selects which).
type funcTarget struct {
	validate validator
	mustOnly bool // a Must* form: panics at runtime, so checked even in tests
}

var funcTargets = map[string]funcTarget{
	"repro/lock.New":      {validateLock, false},
	"repro/lock.MustNew":  {validateLock, true},
	"repro/store.New":     {validateBackend, false},
	"repro/store.MustNew": {validateBackend, true},
	"repro/fault.New":     {validateFault, false},
	"repro/fault.MustNew": {validateFault, true},
}

// configFields maps shard.Config spec-string fields to validators;
// empty constants mean "use the default".
var configFields = map[string]validator{
	"LockSpec":    validateLock,
	"BackendSpec": validateBackend,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		inTest := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, e, inTest)
			case *ast.CompositeLit:
				if !inTest {
					checkConfigLit(pass, e)
				}
			}
			return true
		})
	}
	return nil
}

// checkCall validates constant specs flowing into the registered
// constructor functions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, inTest bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}

	if sig.Recv() != nil {
		return
	}
	target, ok := funcTargets[fn.Pkg().Path()+"."+fn.Name()]
	if !ok {
		return
	}
	if inTest && !target.mustOnly {
		// Tests feed deliberately bad specs to New to exercise the
		// error paths; only the panicking Must* forms are checked
		// there.
		return
	}
	if len(call.Args) > 0 {
		if s, lit, ok := constString(pass, call.Args[0]); ok {
			if err := target.validate(s); err != nil {
				pass.Reportf(lit.Pos(), "invalid spec constant: %v", err)
			}
		}
	}
}

// checkConfigLit validates the spec-string fields of shard.Config
// composite literals, keyed or positional.
func checkConfigLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	named, ok := derefNamed(tv.Type)
	if !ok || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "repro/shard" || named.Obj().Name() != "Config" {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var fieldName string
		var value ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			fieldName, value = key.Name, kv.Value
		} else if i < st.NumFields() {
			fieldName, value = st.Field(i).Name(), elt
		} else {
			continue
		}
		validate, ok := configFields[fieldName]
		if !ok {
			continue
		}
		s, vlit, ok := constString(pass, value)
		if !ok || s == "" { // empty = family default
			continue
		}
		if err := validate(s); err != nil {
			pass.Reportf(vlit.Pos(), "invalid spec constant: %v", err)
		}
	}
}

// calleeFunc resolves a call's static callee, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// constString extracts a compile-time string constant from an
// expression (a literal, a named constant, or a constant concatenation).
func constString(pass *analysis.Pass, e ast.Expr) (string, ast.Expr, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", nil, false
	}
	return constant.StringVal(tv.Value), e, true
}

// derefNamed strips one pointer level and returns the named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}
