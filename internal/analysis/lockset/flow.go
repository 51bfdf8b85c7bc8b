package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/cfg"
)

// A LockRef is one held (or about-to-be-held) lock: its path within
// the current function, its global class (possibly ""), and where it
// was acquired. A class-only ref (Path.Root == nil) stands for "some
// lock of this class" — entry holds declared by class, or acquisitions
// whose base expression is not a resolvable path.
type LockRef struct {
	Path  Path
	Class string
	Pos   token.Pos
}

func (l LockRef) key() string {
	if l.Path.Root == nil {
		return "class:" + l.Class
	}
	return l.Path.Key()
}

// String renders the lock for diagnostics, preferring the in-function
// path.
func (l LockRef) String() string {
	if l.Path.Root != nil {
		return l.Path.String()
	}
	return l.Class
}

// Held is the read-only view of the lockset hooks receive. It is only
// valid for the duration of the hook call.
type Held struct{ m map[string]LockRef }

// Empty reports whether no lock is held.
func (h Held) Empty() bool { return len(h.m) == 0 }

// Has reports whether exactly this path is held.
func (h Held) Has(p Path) bool {
	_, ok := h.m[p.Key()]
	return ok
}

// HasClass reports whether any held lock has the given class.
func (h Held) HasClass(class string) bool {
	if class == "" {
		return false
	}
	for _, ref := range h.m {
		if ref.Class == class {
			return true
		}
	}
	return false
}

// Refs returns the held locks, sorted by identity for determinism.
func (h Held) Refs() []LockRef {
	out := make([]LockRef, 0, len(h.m))
	keys := make([]string, 0, len(h.m))
	for k := range h.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, h.m[k])
	}
	return out
}

// Hooks are the analyzer-facing callbacks. All fire during a single
// replay pass over the converged dataflow, so each syntactic event
// fires once per control-flow context that reaches it.
type Hooks struct {
	// Access fires for every field selection outside fresh-object
	// initialization windows. base is the canonical path of the
	// selection's operand when it has one (baseOK).
	Access func(expr *ast.SelectorExpr, field *types.Var, base Path, baseOK bool, held Held)
	// Acquire fires when a lock is added to the lockset; held is the
	// set at that instant, the acquired lock excluded.
	Acquire func(pos token.Pos, lock LockRef, held Held)
	// Release fires when a release is applied. wasHeld is false for an
	// unlock on a path where the dataflow saw no matching lock;
	// deferred marks releases lowered from defer statements at exits.
	Release func(pos token.Pos, lock LockRef, wasHeld, deferred bool)
	// Call fires for every call with a resolved callee (after Access
	// walks, before the call's own lock effects are applied).
	Call func(call *ast.CallExpr, callee *types.Func, held Held)
	// Exit fires per function exit with the locks still held there,
	// entry-held locks (the caller's) excluded.
	Exit func(pos token.Pos, leaked []LockRef)
}

// condKind classifies how a call's acquisition is conditioned on its
// result.
type condKind int

const (
	condNone   condKind = iota // unconditional
	condBool                   // held iff the bool result is true
	condErrNil                 // held iff the error result is nil
)

// pendRec is a conditional acquisition bound to the local variable
// holding the deciding result, waiting for a branch to consume it.
type pendRec struct {
	kind  condKind
	locks []LockRef
}

// state is one program point's dataflow fact: the must-held lockset
// plus pending conditional acquisitions.
type state struct {
	held map[string]LockRef
	pend map[*types.Var]pendRec
}

func newState() *state {
	return &state{held: map[string]LockRef{}, pend: map[*types.Var]pendRec{}}
}

func (s *state) clone() *state {
	c := &state{held: make(map[string]LockRef, len(s.held)), pend: make(map[*types.Var]pendRec, len(s.pend))}
	for k, v := range s.held {
		c.held[k] = v
	}
	for k, v := range s.pend {
		c.pend[k] = v
	}
	return c
}

// join intersects two states (must-analysis: a lock is held at a join
// only if held on every path into it).
func join(a, b *state) *state {
	j := newState()
	for k, v := range a.held {
		if _, ok := b.held[k]; ok {
			j.held[k] = v
		}
	}
	for v, pa := range a.pend {
		if pb, ok := b.pend[v]; ok && pa.kind == pb.kind && sameLocks(pa.locks, pb.locks) {
			j.pend[v] = pa
		}
	}
	return j
}

func sameLocks(a, b []LockRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key() != b[i].key() {
			return false
		}
	}
	return true
}

func (s *state) equal(o *state) bool {
	if len(s.held) != len(o.held) || len(s.pend) != len(o.pend) {
		return false
	}
	for k := range s.held {
		if _, ok := o.held[k]; !ok {
			return false
		}
	}
	for v, p := range s.pend {
		op, ok := o.pend[v]
		if !ok || op.kind != p.kind || !sameLocks(op.locks, p.locks) {
			return false
		}
	}
	return true
}

// effects is the classification of one call expression.
type effects struct {
	acquires []LockRef    // paths known at the call site
	retAcq   []retAcquire // result-rooted acquisitions (need LHS binding)
	releases []LockRef
	cond     condKind
	condIdx  int // result index carrying the bool/error condition
}

type retAcquire struct {
	index int
	sel   []string
}

// bindMode says what happens to a call's results.
type bindMode int

const (
	bindNone    bindMode = iota // value context: conditional acquires unknowable, skipped
	bindDiscard                 // statement context, results dropped: apply unconditionally
	bindAssign                  // assignment: bind conditions/results to LHS variables
)

// fnAnalysis is the per-function-declaration engine state.
type fnAnalysis struct {
	info  *Info
	res   *resolver
	fresh map[*types.Var]token.Pos // fresh local → publication pos (NoPos: never published)
	hooks *Hooks                   // nil during fixpoint, set during replay
	lits  *[]litWork               // sink for function literals found during replay
}

type litWork struct {
	lit   *ast.FuncLit
	entry *state
}

// Analyze runs the lockset dataflow over one function declaration and
// fires the hooks against the converged states. Function literals are
// analyzed too, inheriting the lockset of their creation point (right
// for the synchronous-callback idiom — Range under a lock; permissive
// for literals that escape into goroutines).
func Analyze(info *Info, fd *ast.FuncDecl, hooks Hooks) {
	if fd.Body == nil {
		return
	}
	a := &fnAnalysis{
		info:  info,
		res:   &resolver{info: info.Pass.TypesInfo, aliases: collectAliases(info.Pass.TypesInfo, fd.Body)},
		fresh: collectFresh(info.Pass.TypesInfo, fd.Body),
	}
	entry := newState()
	for _, ref := range EntryHolds(info, fd) {
		entry.held[ref.key()] = ref
	}
	a.analyzeBody(fd.Body, entry, &hooks)
}

// EntryHolds resolves a function's //lockcheck:holds contract against
// its receiver and parameters: the locks the dataflow assumes held on
// entry (and exempts from exit-leak reporting).
func EntryHolds(info *Info, fd *ast.FuncDecl) []LockRef {
	fn, ok := info.Pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	c := info.ContractFor(fn)
	if c == nil {
		return nil
	}
	var out []LockRef
	for _, cp := range c.Holds {
		switch cp.Role {
		case RoleRecv:
			if v := recvVar(info.Pass.TypesInfo, fd); v != nil {
				p := Path{Root: v, Sel: cp.Sel}
				out = append(out, LockRef{Path: p, Class: p.Class(), Pos: fd.Pos()})
			}
		case RoleArg:
			if v := paramVar(info.Pass.TypesInfo, fd, cp.Index); v != nil {
				p := Path{Root: v, Sel: cp.Sel}
				out = append(out, LockRef{Path: p, Class: p.Class(), Pos: fd.Pos()})
			}
		case RoleClass:
			out = append(out, LockRef{Class: cp.Class, Pos: fd.Pos()})
		}
	}
	return out
}

func recvVar(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	v, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

func paramVar(info *types.Info, fd *ast.FuncDecl, index int) *types.Var {
	i := 0
	if fd.Type.Params == nil {
		return nil
	}
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			if i == index {
				v, _ := info.Defs[n].(*types.Var)
				return v
			}
			i++
		}
		if len(f.Names) == 0 {
			i++
		}
	}
	return nil
}

// analyzeBody fixpoints one body, replays it with hooks, then recurses
// into the function literals it created.
func (a *fnAnalysis) analyzeBody(body *ast.BlockStmt, entry *state, hooks *Hooks) {
	g := cfg.New(body)
	in := make([]*state, len(g.Blocks))
	in[g.Entry.Index] = entry.clone()
	entryKeys := make(map[string]bool, len(entry.held))
	for k := range entry.held {
		entryKeys[k] = true
	}

	// Fixpoint, hooks off.
	a.hooks = nil
	work := []*cfg.Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, edge := range a.transfer(g, b, in[b.Index]) {
			succ, st := edge.to, edge.st
			if succ == g.Exit {
				continue // Exit holds nothing to propagate
			}
			if in[succ.Index] == nil {
				in[succ.Index] = st
				work = append(work, succ)
			} else if j := join(in[succ.Index], st); !j.equal(in[succ.Index]) {
				in[succ.Index] = j
				work = append(work, succ)
			}
		}
	}

	// Replay, hooks on, collecting literals.
	var lits []litWork
	a.hooks = hooks
	a.lits = &lits
	for _, b := range g.Blocks {
		if in[b.Index] == nil {
			continue // unreachable: no diagnostics from dead code
		}
		for _, edge := range a.transfer(g, b, in[b.Index]) {
			if edge.to != g.Exit {
				continue
			}
			a.applyDefers(g, b, edge.st)
			if hooks.Exit != nil {
				var leaked []LockRef
				for _, ref := range (Held{m: edge.st.held}).Refs() {
					if !entryKeys[ref.key()] {
						leaked = append(leaked, ref)
					}
				}
				if len(leaked) > 0 {
					hooks.Exit(exitPos(b, body), leaked)
				}
			}
		}
	}
	a.hooks = nil
	a.lits = nil

	for _, lw := range lits {
		a.analyzeBody(lw.lit.Body, lw.entry, hooks)
	}
}

// exitPos picks the reporting position for an exit edge: the return
// statement when the block ends in one, else the body's closing brace.
func exitPos(b *cfg.Block, body *ast.BlockStmt) token.Pos {
	if len(b.Nodes) > 0 {
		if r, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt); ok {
			return r.Pos()
		}
	}
	return body.End() - 1
}

// outEdge is one (successor, out-state) pair of a block transfer.
type outEdge struct {
	to *cfg.Block
	st *state
}

// transfer interprets one block against an in-state and yields the
// per-edge out-states (branch polarity applied on conditions).
func (a *fnAnalysis) transfer(g *cfg.Graph, b *cfg.Block, in *state) []outEdge {
	st := in.clone()
	for _, n := range b.Nodes {
		a.node(n, st)
	}
	var out []outEdge
	if b.Cond != nil && len(b.Succs) == 2 {
		a.exprWalk(b.Cond, st)
		for i, succ := range b.Succs {
			es := st.clone()
			a.applyCond(b.Cond, es, i == 0)
			out = append(out, outEdge{to: succ, st: es})
		}
		return out
	}
	for i, succ := range b.Succs {
		es := st
		if i > 0 {
			es = st.clone()
		}
		out = append(out, outEdge{to: succ, st: es})
	}
	return out
}

// node interprets one atomic statement or evaluated expression.
func (a *fnAnalysis) node(n ast.Node, st *state) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(n, st)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			a.callExpr(call, st, bindDiscard, nil)
		} else {
			a.exprWalk(n.X, st)
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.exprWalk(r, st)
		}
	case *ast.DeferStmt:
		a.registrationWalk(n.Call, st)
	case *ast.GoStmt:
		a.registrationWalk(n.Call, st)
	case *ast.IncDecStmt:
		a.exprWalk(n.X, st)
	case *ast.SendStmt:
		a.exprWalk(n.Chan, st)
		a.exprWalk(n.Value, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 {
					if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, name := range vs.Names {
							lhs[i] = name
						}
						a.callExpr(call, st, bindAssign, lhs)
						continue
					}
				}
				for _, v := range vs.Values {
					a.exprWalk(v, st)
				}
			}
		}
	case *ast.BranchStmt, *ast.EmptyStmt, *ast.BadStmt, *ast.LabeledStmt:
	case ast.Expr:
		a.exprWalk(n, st)
	}
}

// assign interprets an assignment: invalidate state tied to the
// overwritten variables, walk the RHS (binding call results), then
// walk non-ident LHS for write accesses.
func (a *fnAnalysis) assign(s *ast.AssignStmt, st *state) {
	for _, lhs := range s.Lhs {
		if v := a.identVar(lhs); v != nil {
			a.invalidate(v, st)
		}
	}
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			a.callExpr(call, st, bindAssign, s.Lhs)
		} else {
			a.exprWalk(s.Rhs[0], st)
		}
	} else {
		for _, r := range s.Rhs {
			a.exprWalk(r, st)
		}
	}
	for _, lhs := range s.Lhs {
		if a.identVar(lhs) == nil {
			a.exprWalk(lhs, st)
		}
	}
}

// invalidate drops state that names an overwritten variable: pending
// conditions bound to it, pending locks rooted at it, and held locks
// rooted at it (the path now denotes a different lock).
func (a *fnAnalysis) invalidate(v *types.Var, st *state) {
	delete(st.pend, v)
	for pv, p := range st.pend {
		for _, l := range p.locks {
			if l.Path.Root == v {
				delete(st.pend, pv)
				break
			}
		}
	}
	for k, ref := range st.held {
		if ref.Path.Root == v {
			delete(st.held, k)
		}
	}
}

func (a *fnAnalysis) identVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := a.info.Pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := a.info.Pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// exprWalk visits an expression in value context: fires Access hooks
// for field selections, applies unconditional call effects, and skips
// conditional acquires (their result is consumed by an expression the
// dataflow does not model).
func (a *fnAnalysis) exprWalk(e ast.Expr, st *state) {
	switch e := e.(type) {
	case nil, *ast.BasicLit, *ast.Ident, *ast.BadExpr,
		*ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StructType,
		*ast.InterfaceType, *ast.FuncType:
	case *ast.ParenExpr:
		a.exprWalk(e.X, st)
	case *ast.SelectorExpr:
		a.selector(e, st)
	case *ast.CallExpr:
		a.callExpr(e, st, bindNone, nil)
	case *ast.UnaryExpr:
		a.exprWalk(e.X, st)
	case *ast.StarExpr:
		a.exprWalk(e.X, st)
	case *ast.BinaryExpr:
		a.exprWalk(e.X, st)
		a.exprWalk(e.Y, st)
	case *ast.KeyValueExpr:
		a.exprWalk(e.Key, st)
		a.exprWalk(e.Value, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			a.exprWalk(el, st)
		}
	case *ast.IndexExpr:
		a.exprWalk(e.X, st)
		a.exprWalk(e.Index, st)
	case *ast.IndexListExpr:
		a.exprWalk(e.X, st)
		for _, idx := range e.Indices {
			a.exprWalk(idx, st)
		}
	case *ast.SliceExpr:
		a.exprWalk(e.X, st)
		a.exprWalk(e.Low, st)
		a.exprWalk(e.High, st)
		a.exprWalk(e.Max, st)
	case *ast.TypeAssertExpr:
		a.exprWalk(e.X, st)
	case *ast.Ellipsis:
		a.exprWalk(e.Elt, st)
	case *ast.FuncLit:
		if a.lits != nil {
			*a.lits = append(*a.lits, litWork{lit: e, entry: &state{
				held: Held{m: st.held}.snapshot(), pend: map[*types.Var]pendRec{},
			}})
		}
	}
}

func (h Held) snapshot() map[string]LockRef {
	m := make(map[string]LockRef, len(h.m))
	for k, v := range h.m {
		m[k] = v
	}
	return m
}

// selector fires the Access hook for a field selection, then walks the
// operand (so d.a.b fires for both b and a).
func (a *fnAnalysis) selector(e *ast.SelectorExpr, st *state) {
	if sel := a.info.Pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
		if field, ok := sel.Obj().(*types.Var); ok {
			base, baseOK := a.res.pathOf(e.X)
			exempt := baseOK && a.isFreshAt(base.Root, e.Pos())
			if !exempt && a.hooks != nil && a.hooks.Access != nil {
				a.hooks.Access(e, field, base, baseOK, Held{m: st.held})
			}
		}
	}
	a.exprWalk(e.X, st)
}

func (a *fnAnalysis) isFreshAt(root *types.Var, pos token.Pos) bool {
	if root == nil {
		return false
	}
	pub, ok := a.fresh[root]
	if !ok {
		return false
	}
	return pub == token.NoPos || pos < pub
}

// registrationWalk visits a defer/go call's operands for accesses (they
// are evaluated at registration) without applying the call's lock
// effects (it runs elsewhere/later).
func (a *fnAnalysis) registrationWalk(call *ast.CallExpr, st *state) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		a.exprWalk(fun.X, st)
	case *ast.FuncLit:
		a.exprWalk(fun, st) // snapshot; the body inherits this point's lockset
	default:
		a.exprWalk(call.Fun, st)
	}
	for _, arg := range call.Args {
		a.exprWalk(arg, st)
	}
}

// callExpr walks a call's operands and applies its lock effects
// according to the binding mode.
func (a *fnAnalysis) callExpr(call *ast.CallExpr, st *state, mode bindMode, lhs []ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		a.exprWalk(fun.X, st)
	default:
		a.exprWalk(call.Fun, st)
	}
	for _, arg := range call.Args {
		a.exprWalk(arg, st)
	}

	callee := a.calleeOf(call)
	if callee != nil && a.hooks != nil && a.hooks.Call != nil {
		a.hooks.Call(call, callee, Held{m: st.held})
	}

	eff := a.classify(call, lhs)
	for _, rel := range eff.releases {
		a.release(st, rel, call.Pos(), false)
	}
	if len(eff.acquires) == 0 && len(eff.retAcq) == 0 {
		return
	}

	locks := append([]LockRef(nil), eff.acquires...)
	if mode == bindAssign {
		for _, ra := range eff.retAcq {
			if ra.index < len(lhs) {
				if v := a.identVar(lhs[ra.index]); v != nil && v.Name() != "_" {
					p := Path{Root: v, Sel: ra.sel}
					locks = append(locks, LockRef{Path: p, Class: p.Class(), Pos: call.Pos()})
				}
			}
		}
	}
	if len(locks) == 0 {
		return
	}

	switch eff.cond {
	case condNone:
		for _, l := range locks {
			a.acquire(st, l)
		}
	case condBool, condErrNil:
		switch mode {
		case bindNone:
			// Result consumed by an enclosing expression the dataflow
			// does not model (returned, combined): leave the state
			// alone. Branch conditions are handled in applyCond.
		case bindDiscard:
			// Result thrown away: the code proceeds as if it succeeded.
			for _, l := range locks {
				a.acquire(st, l)
			}
		case bindAssign:
			if eff.condIdx < len(lhs) {
				if v := a.identVar(lhs[eff.condIdx]); v != nil && v.Name() != "_" {
					st.pend[v] = pendRec{kind: eff.cond, locks: locks}
					return
				}
			}
			// Condition discarded into _ or an unnameable place.
			for _, l := range locks {
				a.acquire(st, l)
			}
		}
	}
}

func (a *fnAnalysis) acquire(st *state, l LockRef) {
	if a.hooks != nil && a.hooks.Acquire != nil {
		a.hooks.Acquire(l.Pos, l, Held{m: st.held})
	}
	st.held[l.key()] = l
}

func (a *fnAnalysis) release(st *state, l LockRef, pos token.Pos, deferred bool) {
	key := l.key()
	_, was := st.held[key]
	if !was && l.Path.Root == nil && l.Class != "" {
		// Class-only release: drop one held lock of the class if any.
		for k, ref := range st.held {
			if ref.Class == l.Class {
				key, was = k, true
				break
			}
		}
	}
	delete(st.held, key)
	if a.hooks != nil && a.hooks.Release != nil {
		a.hooks.Release(pos, l, was, deferred)
	}
}

func (a *fnAnalysis) calleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := a.info.Pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := a.info.Pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

// acquireNames and releaseNames drive the no-annotation-needed
// heuristic for lock-shaped methods. Conditionality derives from the
// result: none → unconditional, bool → success branch, error → nil
// branch.
var acquireNames = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
	"LockContext": true, "TryLockFor": true,
	"Acquire": true, "AcquireContext": true, "TryAcquire": true,
	"AcquireFor": true,
}

var releaseNames = map[string]bool{
	"Unlock": true, "RUnlock": true, "Release": true,
}

// classify determines a call's lock effects: an explicit contract wins;
// otherwise lockword protocols on annotated atomic fields; otherwise
// the method-name heuristic.
func (a *fnAnalysis) classify(call *ast.CallExpr, lhs []ast.Expr) effects {
	callee := a.calleeOf(call)
	if callee == nil {
		return effects{}
	}
	if c := a.info.ContractFor(callee); c != nil {
		return a.contractEffects(c, call, callee)
	}
	if eff, ok := a.lockwordEffects(call, callee); ok {
		return eff
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return effects{}
	}
	name := callee.Name()
	if !acquireNames[name] && !releaseNames[name] {
		return effects{}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return effects{}
	}
	var ref LockRef
	if p, ok := a.res.pathOf(sel.X); ok {
		ref = LockRef{Path: p, Class: p.Class(), Pos: call.Pos()}
	} else if class := a.classOfExpr(sel.X); class != "" {
		ref = LockRef{Class: class, Pos: call.Pos()}
	} else {
		return effects{}
	}
	if releaseNames[name] {
		if sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return effects{releases: []LockRef{ref}}
		}
		return effects{}
	}
	cond, idx := condOf(sig)
	return effects{acquires: []LockRef{ref}, cond: cond, condIdx: idx}
}

// classOfExpr names the class of an expression that is a field
// selection but not a resolvable path (base is a call result, say).
func (a *fnAnalysis) classOfExpr(e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := a.info.Pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return ""
	}
	return FieldClass(field)
}

// condOf derives acquisition conditionality from a signature's results.
func condOf(sig *types.Signature) (condKind, int) {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return condErrNil, i
		}
	}
	for i := 0; i < res.Len(); i++ {
		if basic, ok := types.Unalias(res.At(i).Type()).(*types.Basic); ok && basic.Kind() == types.Bool {
			return condBool, i
		}
	}
	return condNone, 0
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// contractEffects resolves a callee's declared contract at a call site.
func (a *fnAnalysis) contractEffects(c *Contract, call *ast.CallExpr, callee *types.Func) effects {
	sig, _ := callee.Type().(*types.Signature)
	var eff effects
	if sig != nil {
		eff.cond, eff.condIdx = condOf(sig)
	}
	resolve := func(cp ContractPath) (LockRef, bool) {
		switch cp.Role {
		case RoleRecv:
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return LockRef{}, false
			}
			if p, ok := a.res.pathOf(sel.X); ok {
				p = p.Extend(cp.Sel...)
				return LockRef{Path: p, Class: p.Class(), Pos: call.Pos()}, true
			}
		case RoleArg:
			if cp.Index < len(call.Args) {
				if p, ok := a.res.pathOf(call.Args[cp.Index]); ok {
					p = p.Extend(cp.Sel...)
					return LockRef{Path: p, Class: p.Class(), Pos: call.Pos()}, true
				}
			}
		}
		return LockRef{}, false
	}
	for _, cp := range c.Acquires {
		if cp.Role == RoleRet {
			eff.retAcq = append(eff.retAcq, retAcquire{index: cp.Index, sel: cp.Sel})
			continue
		}
		if ref, ok := resolve(cp); ok {
			eff.acquires = append(eff.acquires, ref)
		}
	}
	for _, cp := range c.Releases {
		if ref, ok := resolve(cp); ok {
			eff.releases = append(eff.releases, ref)
		}
	}
	if len(eff.acquires) == 0 && len(eff.retAcq) == 0 {
		eff.cond = condNone
	}
	return eff
}

// lockwordEffects recognizes the lock-word protocol on fields marked
// //lockcheck:lockword: CompareAndSwap(0, x) acquires on the true
// branch; Store(0) releases.
func (a *fnAnalysis) lockwordEffects(call *ast.CallExpr, callee *types.Func) (effects, bool) {
	if callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
		return effects{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return effects{}, false
	}
	field := a.fieldVarOf(sel.X)
	if field == nil || !a.info.IsLockword(field) {
		return effects{}, false
	}
	p, pOK := a.res.pathOf(sel.X)
	var ref LockRef
	if pOK {
		ref = LockRef{Path: p, Class: p.Class(), Pos: call.Pos()}
	} else {
		ref = LockRef{Class: FieldClass(field), Pos: call.Pos()}
	}
	switch callee.Name() {
	case "CompareAndSwap":
		if len(call.Args) == 2 && isZeroLit(call.Args[0]) {
			return effects{acquires: []LockRef{ref}, cond: condBool}, true
		}
	case "Store":
		if len(call.Args) == 1 && isZeroLit(call.Args[0]) {
			return effects{releases: []LockRef{ref}}, true
		}
	}
	return effects{}, false
}

// fieldVarOf resolves the field object an expression selects, looking
// through parens, &, *, and local aliases.
func (a *fnAnalysis) fieldVarOf(e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return a.fieldVarOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return a.fieldVarOf(e.X)
		}
	case *ast.StarExpr:
		return a.fieldVarOf(e.X)
	case *ast.SelectorExpr:
		if sel := a.info.Pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
	case *ast.Ident:
		if v, ok := a.info.Pass.TypesInfo.Uses[e].(*types.Var); ok {
			if def, isAlias := a.res.aliases[v]; isAlias {
				return a.fieldVarOf(def)
			}
		}
	}
	return nil
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// applyCond refines the state along one polarity of a branch
// condition: TryLock/CAS success branches, `err != nil` checks against
// pending LockContext results, and bool flags bound to TryLock results.
func (a *fnAnalysis) applyCond(cond ast.Expr, st *state, branch bool) {
	cond = ast.Unparen(cond)
	for {
		u, ok := cond.(*ast.UnaryExpr)
		if !ok || u.Op != token.NOT {
			break
		}
		cond = ast.Unparen(u.X)
		branch = !branch
	}
	switch c := cond.(type) {
	case *ast.CallExpr:
		eff := a.classify(c, nil)
		if eff.cond == condBool && branch {
			for _, l := range eff.acquires {
				a.acquire(st, l)
			}
		}
	case *ast.Ident:
		v, _ := a.info.Pass.TypesInfo.Uses[c].(*types.Var)
		if v == nil {
			return
		}
		if p, ok := st.pend[v]; ok && p.kind == condBool {
			if branch {
				for _, l := range p.locks {
					a.acquire(st, l)
				}
			}
			delete(st.pend, v)
		}
	case *ast.BinaryExpr:
		if c.Op != token.EQL && c.Op != token.NEQ {
			return
		}
		var other ast.Expr
		if isNilIdent(c.Y) {
			other = ast.Unparen(c.X)
		} else if isNilIdent(c.X) {
			other = ast.Unparen(c.Y)
		} else {
			return
		}
		// The branch where the error IS nil: true branch of ==, false
		// branch of !=.
		nilBranch := branch == (c.Op == token.EQL)
		switch o := other.(type) {
		case *ast.Ident:
			v, _ := a.info.Pass.TypesInfo.Uses[o].(*types.Var)
			if v == nil {
				return
			}
			if p, ok := st.pend[v]; ok && p.kind == condErrNil {
				if nilBranch {
					for _, l := range p.locks {
						a.acquire(st, l)
					}
				}
				delete(st.pend, v)
			}
		case *ast.CallExpr:
			eff := a.classify(o, nil)
			if eff.cond == condErrNil && nilBranch {
				for _, l := range eff.acquires {
					a.acquire(st, l)
				}
			}
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// applyDefers lowers the function's deferred calls onto one exit edge:
// every defer registered before this exit runs, in reverse order, and
// only its releases are modeled (a defer that acquires affects nothing
// the caller can see). A deferred func literal contributes the
// releases of its top-level call statements — the
// `defer func() { mu.Unlock() }()` idiom.
func (a *fnAnalysis) applyDefers(g *cfg.Graph, from *cfg.Block, st *state) {
	var retPos token.Pos
	if len(from.Nodes) > 0 {
		if r, ok := from.Nodes[len(from.Nodes)-1].(*ast.ReturnStmt); ok {
			retPos = r.Pos()
		}
	}
	for i := len(g.Defers) - 1; i >= 0; i-- {
		d := g.Defers[i]
		if retPos != token.NoPos && d.Pos() >= retPos {
			continue // registered after (below) this return: never ran on this path
		}
		a.deferredReleases(d.Call, st)
	}
}

func (a *fnAnalysis) deferredReleases(call *ast.CallExpr, st *state) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, s := range lit.Body.List {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			if inner, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
				a.deferredReleases(inner, st)
			}
		}
		return
	}
	eff := a.classify(call, nil)
	for _, rel := range eff.releases {
		a.release(st, rel, call.Pos(), true)
	}
}

// DescribeLocks joins lock names for diagnostics.
func DescribeLocks(refs []LockRef) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.String()
	}
	return strings.Join(parts, ", ")
}
