// Package hotpath enforces three annotation-driven call budgets.
//
// //lockcheck:cs marks a function that runs inside a lock's critical
// section or on a lock's handoff path. The paper's whole argument is
// that critical-section length sets the contention floor: one stray
// time.Now (a vDSO call, but still ~20ns and a serialization point) or
// fmt.Sprintf (allocates, may trigger GC assist) inside Unlock's
// admission-ordering walk costs every waiter, not just the caller.
// Such a function must not directly:
//
//   - call time.Now, time.Since, time.Sleep, time.After, time.Tick,
//     time.NewTimer, or time.NewTicker;
//   - call anything in fmt, log, or os (I/O and allocation);
//   - use the print/println builtins (they take runtime locks);
//   - send on, receive from, or make a channel, or select (parking on
//     a channel inside a critical section is a convoy generator);
//   - start a goroutine (scheduler entanglement), or defer a function
//     literal (the deferred closure runs while the lock is still held
//     and allocates its frame on the defer chain).
//
// //lockcheck:nosnapshot marks steady-state control-plane code —
// samplers, controllers, chaos loops — that must observe the map
// without stopping it. Map.Snapshot and the Scan family are "patient"
// operations: they quiesce stripes and are priced for occasional
// debugging or reconfiguration, not for a 100ms control loop. Such a
// function must not directly call Snapshot, SnapshotContext, Scan,
// ScanContext, ScanChunked, or ScanChunkedContext on repro/shard.Map,
// nor repro/metrics.Summarize over a full history (it copies the
// history under the recorder lock). The blessed alternative is the
// Map.SnapshotLite sampling read path. ScanChunkedStats is in the
// patient family with the rest of the scans it wraps.
//
// //lockcheck:optimistic marks a validated lock-free read section —
// the seqlock read path (package optimistic) and the backend probes it
// calls. The whole point of the path is that a Get takes zero locks
// and cannot block, and that it races writers by design, with the
// stamp validation (not mutual exclusion) supplying correctness. Such
// a function must not directly:
//
//   - call a lock-acquisition method (Lock, LockContext, TryLock, RLock,
//     TryRLock, Acquire, AcquireContext — on any receiver: one lock
//     acquire and the "wait-free read" claim, and its counters, are
//     fiction);
//   - block: channel send/receive/select, goroutine launch, or
//     time.Sleep/After/Tick/NewTimer/NewTicker/AfterFunc;
//   - plainly store to shared state (assignment or ++/-- whose target
//     reaches beyond the frame: a package-level variable, or anything
//     through a pointer, slice, or map). A racing plain store is
//     exactly the torn write the seqlock cannot validate away; shared
//     mutation in a read section must go through sync/atomic (method
//     calls, which this check does not flag) or move behind the lock.
//     Writes to locals — including fields of local struct values and
//     elements of local arrays — stay in the frame and are fine.
//
// Only direct calls are checked: an interface-typed call site resolves
// to nothing at vet time, and pretending otherwise would make the
// check flaky. The repo's discipline is that hot paths call concrete
// code; the annotation makes that auditable. Function literals nested
// in an annotated function inherit its budget (they run in the same
// dynamic extent unless launched by `go`, which is itself denied in cs
// functions).
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer enforces //lockcheck:cs and //lockcheck:nosnapshot budgets.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: `enforce //lockcheck:cs, //lockcheck:nosnapshot, and //lockcheck:optimistic call budgets

A //lockcheck:cs function (critical-section or lock-handoff code) must
not call time/fmt/log/os functions, touch channels, start goroutines,
or defer closures. A //lockcheck:nosnapshot function (steady-state
control-plane code) must not call the patient Snapshot/Scan family on
shard.Map or metrics.Summarize. A //lockcheck:optimistic function (a
validated lock-free read section) must not acquire locks, block, or
plainly store to shared state.`,
	Run: run,
}

// csDeniedTime lists the time package functions denied in cs functions.
// (time.Duration methods and constants are fine — they are arithmetic.)
var csDeniedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// csDeniedPkgs are packages no cs function may call into at all.
var csDeniedPkgs = map[string]string{
	"fmt": "formats and allocates",
	"log": "locks and writes",
	"os":  "performs I/O",
}

// patientMethods are the shard.Map methods priced for patience, not
// steady-state sampling.
var patientMethods = map[string]bool{
	"Snapshot": true, "SnapshotContext": true,
	"Scan": true, "ScanContext": true,
	"ScanChunked": true, "ScanChunkedContext": true, "ScanChunkedStats": true,
}

// optDeniedLockMethods are the repo's lock-acquisition method names (the
// core.Locker family, sync locks, and the semaphore), denied on any
// receiver inside an optimistic read section.
var optDeniedLockMethods = map[string]bool{
	"Lock": true, "LockContext": true, "TryLock": true,
	"RLock": true, "TryRLock": true,
	"Acquire": true, "AcquireContext": true,
}

// optDeniedTime are the time functions that block or enlist the runtime
// timer machinery; clock reads (Now, Since) are allowed — the read path
// itself is measured.
var optDeniedTime = map[string]bool{
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := analysis.Directive(fd.Doc, "cs"); ok {
				checkCS(pass, fd)
			}
			if _, ok := analysis.Directive(fd.Doc, "nosnapshot"); ok {
				checkNoSnapshot(pass, fd)
			}
			if _, ok := analysis.Directive(fd.Doc, "optimistic"); ok {
				checkOptimistic(pass, fd)
			}
		}
	}
	return nil
}

// checkCS walks a //lockcheck:cs function body (including nested
// function literals) for blocking or allocating constructs.
func checkCS(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			checkCSCall(pass, name, s)
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send in critical-section function %s parks waiters behind the scheduler", name)
		case *ast.UnaryExpr:
			if s.Op.String() == "<-" {
				pass.Reportf(s.Pos(), "channel receive in critical-section function %s parks waiters behind the scheduler", name)
			}
		case *ast.SelectStmt:
			pass.Reportf(s.Pos(), "select in critical-section function %s parks waiters behind the scheduler", name)
		case *ast.GoStmt:
			pass.Reportf(s.Pos(), "goroutine launch in critical-section function %s entangles the handoff path with the scheduler", name)
		case *ast.DeferStmt:
			if _, isLit := ast.Unparen(s.Call.Fun).(*ast.FuncLit); isLit {
				pass.Reportf(s.Pos(), "deferred closure in critical-section function %s allocates and runs while the lock is held", name)
			}
		}
		return true
	})
}

// checkCSCall classifies one call inside a cs function.
func checkCSCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// print/println builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "print", "println":
				pass.Reportf(call.Pos(), "%s builtin in critical-section function %s takes runtime locks", b.Name(), name)
			case "make":
				if len(call.Args) > 0 && isChanType(pass, call.Args[0]) {
					pass.Reportf(call.Pos(), "channel allocation in critical-section function %s", name)
				}
			}
			return
		}
	}

	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch path := fn.Pkg().Path(); {
	case path == "time" && csDeniedTime[fn.Name()]:
		pass.Reportf(call.Pos(), "time.%s in critical-section function %s extends the critical section for every waiter; hoist it outside the lock", fn.Name(), name)
	default:
		if why, denied := csDeniedPkgs[path]; denied {
			pass.Reportf(call.Pos(), "%s.%s in critical-section function %s %s while the lock is held", path, fn.Name(), name, why)
		}
	}
}

// checkNoSnapshot walks a //lockcheck:nosnapshot function body for
// patient map operations.
func checkNoSnapshot(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		if sig.Recv() != nil {
			if patientMethods[fn.Name()] && isShardMap(sig.Recv().Type()) {
				pass.Reportf(call.Pos(),
					"(*shard.Map).%s in //lockcheck:nosnapshot function %s quiesces stripes; steady-state paths must use the lite sample path",
					fn.Name(), name)
			}
			return true
		}
		if fn.Pkg().Path() == "repro/metrics" && fn.Name() == "Summarize" {
			pass.Reportf(call.Pos(),
				"metrics.Summarize in //lockcheck:nosnapshot function %s copies history under the recorder lock; sample incrementally instead",
				name)
		}
		return true
	})
}

// checkOptimistic walks a //lockcheck:optimistic function body
// (including nested function literals) for lock acquisitions, blocking
// constructs, and plain stores to shared state.
func checkOptimistic(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			checkOptCall(pass, name, s)
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send in optimistic read section %s can block; the validated read path must stay wait-free", name)
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				pass.Reportf(s.Pos(), "channel receive in optimistic read section %s can block; the validated read path must stay wait-free", name)
			}
		case *ast.SelectStmt:
			pass.Reportf(s.Pos(), "select in optimistic read section %s can block; the validated read path must stay wait-free", name)
		case *ast.GoStmt:
			pass.Reportf(s.Pos(), "goroutine launch in optimistic read section %s entangles the lock-free path with the scheduler", name)
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				for _, lhs := range s.Lhs {
					checkOptStore(pass, fd, name, lhs)
				}
			}
		case *ast.IncDecStmt:
			checkOptStore(pass, fd, name, s.X)
		}
		return true
	})
}

// checkOptCall classifies one call inside an optimistic read section:
// lock-acquisition methods and blocking time functions are denied.
func checkOptCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Recv() != nil && optDeniedLockMethods[fn.Name()] {
		pass.Reportf(call.Pos(), "%s call in optimistic read section %s acquires a lock; the validated read path must take zero locks (fall back through the caller instead)", fn.Name(), name)
		return
	}
	if sig.Recv() == nil && fn.Pkg().Path() == "time" && optDeniedTime[fn.Name()] {
		pass.Reportf(call.Pos(), "time.%s in optimistic read section %s blocks; the validated read path must stay wait-free", fn.Name(), name)
	}
}

// checkOptStore reports a plain (non-atomic) store whose target reaches
// shared state: the assignment races concurrent readers/writers in a
// way the seqlock cannot validate away. It walks the LHS toward its
// root; any pointer-deref, slice, or map step — or a root identifier
// not local to the annotated function — makes the target shared.
// Fields of local struct values and elements of local arrays stay in
// the frame and pass.
func checkOptStore(pass *analysis.Pass, fd *ast.FuncDecl, name string, lhs ast.Expr) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return
			}
			obj := pass.TypesInfo.ObjectOf(x)
			if obj != nil && obj.Pos() >= fd.Pos() && obj.Pos() <= fd.End() {
				return // declared in this function (param or body): frame-private
			}
			pass.Reportf(lhs.Pos(), "plain store to shared state (%s) in optimistic read section %s races the writers it reads past; use sync/atomic or move the write behind the lock", x.Name, name)
			return
		case *ast.SelectorExpr:
			if tv, ok := pass.TypesInfo.Types[x.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					pass.Reportf(lhs.Pos(), "plain store through a pointer in optimistic read section %s races the writers it reads past; use sync/atomic or move the write behind the lock", name)
					return
				}
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			if tv, ok := pass.TypesInfo.Types[x.X]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					pass.Reportf(lhs.Pos(), "plain store through a slice or map in optimistic read section %s races the writers it reads past; use sync/atomic or move the write behind the lock", name)
					return
				}
			}
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			pass.Reportf(lhs.Pos(), "plain store through a pointer in optimistic read section %s races the writers it reads past; use sync/atomic or move the write behind the lock", name)
			return
		default:
			return
		}
	}
}

// isChanType reports whether the expression denotes a channel type
// (the first argument of make).
func isChanType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || !tv.IsType() {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// isShardMap reports whether t is shard.Map or *shard.Map.
func isShardMap(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "repro/shard" && obj.Name() == "Map"
}
