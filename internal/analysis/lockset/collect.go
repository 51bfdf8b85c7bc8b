package lockset

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// GuardKind distinguishes the three guard declaration forms.
type GuardKind int

const (
	// GuardRel names a sibling lock relative to the same base object:
	// `//lockcheck:guardedby mu` on Server.conns means s.conns needs
	// s.mu, for the same s.
	GuardRel GuardKind = iota
	// GuardClass names a lock class: any held lock of that class
	// satisfies the guard (used when guard and field live on different
	// objects, e.g. a waiter node guarded by its queue's lock).
	GuardClass
	// GuardExternal means the field may only be touched from methods of
	// its declaring type — outside packages must go through the API.
	GuardExternal
)

// A GuardSpec is one field's parsed //lockcheck:guardedby annotation.
type GuardSpec struct {
	Kind  GuardKind
	Rel   []string // GuardRel: sibling path segments
	Class string   // GuardClass: the class; GuardRel: derived class of the sibling (fallback for pathless bases)
	Owner string   // declaring type, "pkgpath.Type" (external check, diagnostics)
}

func (g GuardSpec) String() string {
	switch g.Kind {
	case GuardRel:
		return strings.Join(g.Rel, ".")
	case GuardClass:
		return g.Class
	default:
		return "external"
	}
}

// Role says which function operand a contract path hangs off.
type Role int

const (
	RoleRecv  Role = iota
	RoleArg        // Index = flattened parameter index
	RoleRet        // Index = result index
	RoleClass      // Class carries a literal class name (holds only)
)

// A ContractPath is one operand-relative lock in a holds/acquires/
// releases contract: recv.outer, arg0, ret0.mu.
type ContractPath struct {
	Role  Role
	Index int
	Sel   []string
	Class string
}

// A Contract is a function's declared lock protocol. Acquire
// conditionality is not stored: it derives from the signature at each
// call site (an error result → held iff nil; a bool result → held iff
// true; otherwise unconditional).
type Contract struct {
	Holds    []ContractPath
	Acquires []ContractPath
	Releases []ContractPath
}

// A Pin is one //lockcheck:lockorder A<B directive: the intended
// acquisition order, injected into the lock-order graph as an A→B edge
// so a real edge B→A surfaces as a cycle.
type Pin struct {
	Before, After string
	Pos           token.Pos
}

// Info is everything Collect learns about one package plus its
// imported facts: which fields are guarded, which atomic words are
// lock words, which functions carry contracts, and the order pins.
type Info struct {
	Pass *analysis.Pass

	Guards    map[*types.Var]GuardSpec
	Lockwords map[*types.Var]bool
	Contracts map[*types.Func]*Contract
	Pins      []Pin

	imported      map[string]string
	contractCache map[*types.Func]*Contract
}

// Fact key prefixes. One namespace per analyzer (the checker scopes
// them), so guardedby and lockorder each export the full set they need.
const (
	factGuard    = "g:" // field objKey → encoded GuardSpec
	factLockword = "w:" // field objKey → "1"
	factContract = "c:" // func objKey → encoded Contract
	factPin      = "p:" // "A<B" → position
	factEdge     = "e:" // "A->B" → position (lockorder only)
	factSummary  = "s:" // func objKey → comma-joined acquired classes (lockorder only)
)

// Collect scans the package for lockset annotations, exports them as
// facts, and indexes the imported ones. When report is true, malformed
// directives are diagnosed (exactly one analyzer should pass true, or
// the same complaint appears twice).
func Collect(pass *analysis.Pass, report bool) *Info {
	info := &Info{
		Pass:          pass,
		Guards:        make(map[*types.Var]GuardSpec),
		Lockwords:     make(map[*types.Var]bool),
		Contracts:     make(map[*types.Func]*Contract),
		imported:      pass.ImportedFacts(),
		contractCache: make(map[*types.Func]*Contract),
	}
	bad := func(pos token.Pos, format string, args ...any) {
		if report {
			pass.Reportf(pos, format, args...)
		}
	}

	for _, f := range pass.Files {
		// Struct field annotations need the enclosing type's name.
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					info.collectStruct(ts, st, bad)
				}
			case *ast.FuncDecl:
				info.collectContract(decl, bad)
			}
		}
		// Pins are free-standing comments.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				arg, ok := analysis.Directive(&ast.CommentGroup{List: []*ast.Comment{c}}, "lockorder")
				if !ok {
					continue
				}
				before, after, found := strings.Cut(arg, "<")
				before, after = strings.TrimSpace(before), strings.TrimSpace(after)
				if !found || before == "" || after == "" {
					bad(c.Pos(), "malformed //lockcheck:lockorder directive: want A<B, got %q", arg)
					continue
				}
				info.Pins = append(info.Pins, Pin{Before: before, After: after, Pos: c.Pos()})
			}
		}
	}

	// Export everything for importers.
	for v, g := range info.Guards {
		pass.ExportFact(factGuard+objKey(pass.Fset, v), encodeGuard(g))
	}
	for v := range info.Lockwords {
		pass.ExportFact(factLockword+objKey(pass.Fset, v), "1")
	}
	for fn, c := range info.Contracts {
		pass.ExportFact(factContract+funcKey(pass.Fset, fn), encodeContract(c))
	}
	for _, p := range info.Pins {
		pass.ExportFact(factPin+p.Before+"<"+p.After, pass.Fset.Position(p.Pos).String())
	}
	return info
}

// collectStruct parses guardedby/lockword annotations on the fields of
// one named struct type.
func (info *Info) collectStruct(ts *ast.TypeSpec, st *ast.StructType, bad func(token.Pos, string, ...any)) {
	owner := ""
	if info.Pass.Pkg != nil {
		owner = info.Pass.Pkg.Path() + "." + ts.Name.Name
	}
	for _, field := range st.Fields.List {
		doc := field.Doc
		if doc == nil {
			doc = field.Comment
		}
		arg, hasGuard := analysis.Directive(doc, "guardedby")
		_, hasWord := analysis.Directive(doc, "lockword")
		if !hasGuard && !hasWord {
			continue
		}
		for _, name := range field.Names {
			v, ok := info.Pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if hasWord {
				info.Lockwords[v] = true
			}
			if !hasGuard {
				continue
			}
			spec, err := parseGuard(arg, owner, info.Pass, ts)
			if err != "" {
				bad(field.Pos(), "malformed //lockcheck:guardedby on %s: %s", name.Name, err)
				continue
			}
			info.Guards[v] = spec
		}
	}
}

// parseGuard interprets one guardedby argument. Three forms:
//
//	guardedby external              only methods of the declaring type
//	guardedby mu                    sibling path on the same base object
//	guardedby pkg.Type.field        any held lock of that class
//
// The class form is recognized by containing a dot; a sibling path may
// itself be dotted only via nested structs, which the repo does not
// use, so the ambiguity is resolved in favor of classes.
func parseGuard(arg, owner string, pass *analysis.Pass, ts *ast.TypeSpec) (GuardSpec, string) {
	arg = strings.TrimSpace(arg)
	if arg == "" {
		return GuardSpec{}, "missing guard (want a sibling field, a pkg.Type.field class, or external)"
	}
	if arg == "external" {
		return GuardSpec{Kind: GuardExternal, Owner: owner}, ""
	}
	if strings.Contains(arg, ".") {
		return GuardSpec{Kind: GuardClass, Class: arg, Owner: owner}, ""
	}
	// Sibling form: derive the guard's own class for accesses whose
	// base is not a resolvable path.
	spec := GuardSpec{Kind: GuardRel, Rel: []string{arg}, Owner: owner}
	if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			if st, ok := named.Underlying().(*types.Struct); ok {
				if f := fieldByName(st, arg); f != nil {
					spec.Class = pkgShort(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + arg
				} else {
					return GuardSpec{}, fmt.Sprintf("no sibling field %q on %s", arg, ts.Name.Name)
				}
			}
		}
	}
	return spec, ""
}

// collectContract parses holds/acquires/releases directives on one
// function declaration.
func (info *Info) collectContract(fd *ast.FuncDecl, bad func(token.Pos, string, ...any)) {
	holds := analysis.Directives(fd.Doc, "holds")
	acquires := analysis.Directives(fd.Doc, "acquires")
	releases := analysis.Directives(fd.Doc, "releases")
	if len(holds)+len(acquires)+len(releases) == 0 {
		return
	}
	fn, ok := info.Pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	c := &Contract{}
	parse := func(args []string, dst *[]ContractPath, classOK bool) {
		for _, a := range args {
			cp, err := parseContractPath(a, fd, classOK)
			if err != "" {
				bad(fd.Pos(), "malformed //lockcheck:%s directive %q on %s: %s",
					map[bool]string{true: "holds", false: "acquires/releases"}[classOK], a, fd.Name.Name, err)
				continue
			}
			*dst = append(*dst, cp)
		}
	}
	parse(holds, &c.Holds, true)
	parse(acquires, &c.Acquires, false)
	parse(releases, &c.Releases, false)
	info.Contracts[fn] = c
}

// parseContractPath resolves a directive path like "l.outer", "s",
// "return.mu", or (holds only) "pkg.Type.field" against the function's
// operands.
func parseContractPath(arg string, fd *ast.FuncDecl, classOK bool) (ContractPath, string) {
	segs := strings.Split(strings.TrimSpace(arg), ".")
	if len(segs) == 0 || segs[0] == "" {
		return ContractPath{}, "empty path"
	}
	root, rest := segs[0], segs[1:]

	if root == "return" || strings.HasPrefix(root, "return") {
		idx := 0
		if n := strings.TrimPrefix(root, "return"); n != "" {
			var err error
			if idx, err = strconv.Atoi(n); err != nil {
				return ContractPath{}, fmt.Sprintf("bad result index in %q", root)
			}
		}
		return ContractPath{Role: RoleRet, Index: idx, Sel: rest}, ""
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 &&
		fd.Recv.List[0].Names[0].Name == root {
		return ContractPath{Role: RoleRecv, Sel: rest}, ""
	}
	idx := 0
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			if len(p.Names) == 0 {
				idx++
				continue
			}
			for _, n := range p.Names {
				if n.Name == root {
					return ContractPath{Role: RoleArg, Index: idx, Sel: rest}, ""
				}
				idx++
			}
		}
	}
	if classOK && len(segs) > 1 {
		return ContractPath{Role: RoleClass, Class: arg}, ""
	}
	return ContractPath{}, fmt.Sprintf("%q names neither the receiver, a parameter, nor return[N]", root)
}

// --- fact encoding -------------------------------------------------

func encodeGuard(g GuardSpec) string {
	switch g.Kind {
	case GuardRel:
		return "rel|" + strings.Join(g.Rel, ".") + "|" + g.Class + "|" + g.Owner
	case GuardClass:
		return "class|" + g.Class + "||" + g.Owner
	default:
		return "external|||" + g.Owner
	}
}

func decodeGuard(s string) (GuardSpec, bool) {
	parts := strings.SplitN(s, "|", 4)
	if len(parts) != 4 {
		return GuardSpec{}, false
	}
	switch parts[0] {
	case "rel":
		return GuardSpec{Kind: GuardRel, Rel: strings.Split(parts[1], "."), Class: parts[2], Owner: parts[3]}, true
	case "class":
		return GuardSpec{Kind: GuardClass, Class: parts[1], Owner: parts[3]}, true
	case "external":
		return GuardSpec{Kind: GuardExternal, Owner: parts[3]}, true
	}
	return GuardSpec{}, false
}

func encodeContractPath(cp ContractPath) string {
	var root string
	switch cp.Role {
	case RoleRecv:
		root = "recv"
	case RoleArg:
		root = fmt.Sprintf("arg%d", cp.Index)
	case RoleRet:
		root = fmt.Sprintf("ret%d", cp.Index)
	case RoleClass:
		return "class=" + cp.Class
	}
	if len(cp.Sel) == 0 {
		return root
	}
	return root + "." + strings.Join(cp.Sel, ".")
}

func decodeContractPath(s string) (ContractPath, bool) {
	if class, ok := strings.CutPrefix(s, "class="); ok {
		return ContractPath{Role: RoleClass, Class: class}, true
	}
	segs := strings.Split(s, ".")
	root, rest := segs[0], segs[1:]
	switch {
	case root == "recv":
		return ContractPath{Role: RoleRecv, Sel: rest}, true
	case strings.HasPrefix(root, "arg"):
		idx, err := strconv.Atoi(root[3:])
		if err != nil {
			return ContractPath{}, false
		}
		return ContractPath{Role: RoleArg, Index: idx, Sel: rest}, true
	case strings.HasPrefix(root, "ret"):
		idx, err := strconv.Atoi(root[3:])
		if err != nil {
			return ContractPath{}, false
		}
		return ContractPath{Role: RoleRet, Index: idx, Sel: rest}, true
	}
	return ContractPath{}, false
}

func encodeContract(c *Contract) string {
	enc := func(cps []ContractPath) string {
		parts := make([]string, len(cps))
		for i, cp := range cps {
			parts[i] = encodeContractPath(cp)
		}
		return strings.Join(parts, ",")
	}
	return "h=" + enc(c.Holds) + ";a=" + enc(c.Acquires) + ";r=" + enc(c.Releases)
}

func decodeContract(s string) *Contract {
	c := &Contract{}
	for _, group := range strings.Split(s, ";") {
		key, val, ok := strings.Cut(group, "=")
		if !ok || val == "" {
			continue
		}
		var dst *[]ContractPath
		switch key {
		case "h":
			dst = &c.Holds
		case "a":
			dst = &c.Acquires
		case "r":
			dst = &c.Releases
		default:
			continue
		}
		for _, part := range strings.Split(val, ",") {
			if cp, ok := decodeContractPath(part); ok {
				*dst = append(*dst, cp)
			}
		}
	}
	return c
}

// --- lookups (local first, then imported facts) --------------------

// GuardFor returns the guard annotation on a field, whether declared in
// this package or imported as a fact.
func (info *Info) GuardFor(field *types.Var) (GuardSpec, bool) {
	if g, ok := info.Guards[field]; ok {
		return g, true
	}
	if enc, ok := info.imported[factGuard+objKey(info.Pass.Fset, field)]; ok {
		return decodeGuard(enc)
	}
	return GuardSpec{}, false
}

// IsLockword reports whether the field carries //lockcheck:lockword.
func (info *Info) IsLockword(field *types.Var) bool {
	if info.Lockwords[field] {
		return true
	}
	_, ok := info.imported[factLockword+objKey(info.Pass.Fset, field)]
	return ok
}

// ContractFor returns a function's declared contract, local or
// imported, or nil.
func (info *Info) ContractFor(fn *types.Func) *Contract {
	if fn == nil {
		return nil
	}
	if c, ok := info.Contracts[fn]; ok {
		return c
	}
	if c, ok := info.contractCache[fn]; ok {
		return c
	}
	var c *Contract
	if enc, ok := info.imported[factContract+funcKey(info.Pass.Fset, fn)]; ok {
		c = decodeContract(enc)
	}
	info.contractCache[fn] = c
	return c
}

// AllPins returns the package's pins merged with imported ones, sorted.
func (info *Info) AllPins() []Pin {
	seen := make(map[string]bool)
	var out []Pin
	for _, p := range info.Pins {
		seen[p.Before+"<"+p.After] = true
		out = append(out, p)
	}
	for k := range info.imported {
		spec, ok := strings.CutPrefix(k, factPin)
		if !ok {
			continue
		}
		before, after, found := strings.Cut(spec, "<")
		if !found || seen[spec] {
			continue
		}
		seen[spec] = true
		out = append(out, Pin{Before: before, After: after})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Before != out[j].Before {
			return out[i].Before < out[j].Before
		}
		return out[i].After < out[j].After
	})
	return out
}

// ImportedWithPrefix returns the imported fact entries under one of the
// exported prefixes, key-stripped. lockorder uses it for edges and
// summaries.
func (info *Info) ImportedWithPrefix(prefix string) map[string]string {
	out := make(map[string]string)
	for k, v := range info.imported {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			out[rest] = v
		}
	}
	return out
}

// EdgePrefix and SummaryPrefix expose the fact prefixes lockorder
// exports under (guardedby never writes them).
const (
	EdgePrefix    = factEdge
	SummaryPrefix = factSummary
)

// objKey is the build-stable identity of an object in fact files:
// package path, name, and declaration file:line. Positions survive the
// round trip through export data, so importers compute the same key.
func objKey(fset *token.FileSet, v types.Object) string {
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	p := fset.Position(v.Pos())
	return fmt.Sprintf("%s:%s@%s:%d", pkg, v.Name(), filepath.Base(p.Filename), p.Line)
}

// funcKey is objKey for functions (methods with the same name differ by
// declaration line).
func funcKey(fset *token.FileSet, fn *types.Func) string {
	return objKey(fset, fn)
}
