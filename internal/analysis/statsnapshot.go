package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StatSnapshot guards the consistency of exported Stats()/Snapshot
// methods — the torn-read pattern PR 9 had to audit by hand. On any
// type that has opted into concurrency (it carries a mutex or atomic
// fields), a snapshot method must read each plain counter field either
// under a lock or through sync/atomic; and its reads must not be split
// across multiple critical sections of the same lock, which tears the
// snapshot between sections. Types with neither mutexes nor atomics are
// single-goroutine by design in this codebase (the zero-goroutine
// driver property) and are skipped.
var StatSnapshot = &Analyzer{
	Name: "statsnapshot",
	Doc:  "flags torn reads in exported Stats/Snapshot methods",
	Run:  runStatSnapshot,
}

func isSnapshotMethod(name string) bool {
	return name == "Stats" || name == "Snapshot" ||
		strings.HasSuffix(name, "Stats") || strings.HasSuffix(name, "Snapshot")
}

func runStatSnapshot(pass *Pass) {
	order, decls := packageFuncs(pass)
	for _, fn := range order {
		decl := decls[fn]
		if decl.Recv == nil || !fn.Exported() || !isSnapshotMethod(fn.Name()) {
			continue
		}
		recvType := namedOf(fn.Signature().Recv().Type())
		if recvType == nil {
			continue
		}
		st, ok := recvType.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if !typeHasSync(st, 2) {
			continue
		}
		recvVar := receiverVar(pass.Info, decl)
		if recvVar == nil {
			continue
		}
		checkSnapshotBody(pass, decl, recvVar)
	}
}

// typeHasSync reports whether the struct carries a mutex or atomic
// field, directly or through depth levels of struct-typed fields.
func typeHasSync(st *types.Struct, depth int) bool {
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if isSyncType(ft) {
			return true
		}
		if depth > 0 {
			if inner, ok := deref(ft).Underlying().(*types.Struct); ok {
				if typeHasSync(inner, depth-1) {
					return true
				}
			}
		}
	}
	return false
}

func isSyncType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

func receiverVar(info *types.Info, decl *ast.FuncDecl) *types.Var {
	if len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[decl.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// checkSnapshotBody walks the method, flagging counter reads outside
// any critical section and snapshots split across sections of one lock.
func checkSnapshotBody(pass *Pass, decl *ast.FuncDecl, recv *types.Var) {
	atomicArgs := atomicCallArgs(pass.Info, decl.Body)

	section := map[lockID]int{}
	readIn := map[lockID]map[int]bool{}

	w := &lockWalker{info: pass.Info, hooks: bodyHooks{
		onAcquire: func(id lockID, pos token.Pos, st *lockState, retaken bool) {
			section[id]++
		},
		onNode: func(n ast.Node, st *lockState) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgs[sel] {
				return
			}
			if !selectorRootedAt(pass.Info, sel, recv) {
				return
			}
			tv, ok := pass.Info.Types[sel]
			if !ok || !isCounterType(tv.Type) {
				return
			}
			if len(st.held) == 0 {
				pass.Reportf(sel.Pos(), "%s read outside any lock in snapshot method %s (torn-read hazard); hold the lock or use atomics",
					types.ExprString(sel), decl.Name.Name)
				return
			}
			for _, h := range st.held {
				if readIn[h.id] == nil {
					readIn[h.id] = map[int]bool{}
				}
				readIn[h.id][section[h.id]] = true
			}
		},
	}}
	w.walkBody(decl.Body)

	for id, sections := range readIn {
		if len(sections) > 1 {
			pass.Reportf(decl.Pos(), "snapshot method %s reads counters in %d separate critical sections of %s; the state can move between them — take one section",
				decl.Name.Name, len(sections), id)
		}
	}
}

// atomicCallArgs marks selector expressions passed (by address) to
// sync/atomic functions: atomic.LoadInt64(&s.n) reads s.n safely.
func atomicCallArgs(info *types.Info, body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	out := map[*ast.SelectorExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if sel, ok := m.(*ast.SelectorExpr); ok {
					out[sel] = true
				}
				return true
			})
		}
		return true
	})
	return out
}

// selectorRootedAt reports whether sel is a field chain hanging off the
// receiver variable (s.n, s.stats.n, ...).
func selectorRootedAt(info *types.Info, sel *ast.SelectorExpr, recv *types.Var) bool {
	for {
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			return info.Uses[x] == recv
		case *ast.SelectorExpr:
			sel = x
		default:
			return false
		}
	}
}

// isCounterType reports whether t is snapshot-counter-shaped: a plain
// number, or a plain-data struct of numbers (copying one unlocked is
// the classic torn read). Atomic types, mutexes, pointers, slices and
// maps are excluded — atomics are safe, the rest are not counters.
func isCounterType(t types.Type) bool {
	if isSyncType(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsNumeric != 0
	case *types.Struct:
		if u.NumFields() == 0 {
			return false
		}
		for i := 0; i < u.NumFields(); i++ {
			ft := u.Field(i).Type()
			if isSyncType(ft) {
				return false
			}
			b, ok := ft.Underlying().(*types.Basic)
			if !ok {
				return false
			}
			if b.Info()&(types.IsNumeric|types.IsBoolean|types.IsString) == 0 {
				return false
			}
		}
		return true
	}
	return false
}
