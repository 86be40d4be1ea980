package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// durabilityPackages are the packages where a swallowed error is silent
// row loss: the WAL/segment machinery (logstore), the wire codec every
// frame passes through, the information store that sits on both, and the
// replication plane that applies and pushes its rows.
var durabilityPackages = map[string]bool{
	"logstore":    true,
	"wire":        true,
	"information": true,
	"replica":     true,
}

// ErrDrop flags discarded error returns on the WAL/segment/wire
// append-read paths and the replication plane: a call whose error result is thrown away — as a
// bare statement, assigned to _, or deferred — previously meant rows
// vanishing without a trace. Every drop must be either handled or
// carry a //lint:allow errdrop pragma explaining why losing it is
// safe.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded errors on WAL/segment/wire append-read paths and in replica",
	Run:  runErrDrop,
}

var errType = types.Universe.Lookup("error").Type()

// isHashWrite recognises Write on the standard hash interfaces and
// implementations (hash.Hash, hash/fnv, crypto/sha256, ...), which are
// documented to never return an error. Flagging those would bury the
// real drops under pragma noise.
func isHashWrite(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Write" {
		return false
	}
	// The method resolves through hash.Hash's embedded io.Writer, so
	// judge by the receiver's static type, not the method's package.
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	n := namedOf(tv.Type)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "hash" || strings.HasPrefix(path, "hash/") || strings.HasPrefix(path, "crypto/")
}

// errResultIndex returns the index of the trailing error result of
// call, or -1.
func errResultIndex(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() > 0 && types.Identical(t.At(t.Len()-1).Type(), errType) {
			return t.Len() - 1
		}
	default:
		if types.Identical(tv.Type, errType) {
			return 0
		}
	}
	return -1
}

func runErrDrop(pass *Pass) {
	if !durabilityPackages[pass.Pkg.Name()] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if errResultIndex(pass.Info, call) >= 0 && !isHashWrite(pass.Info, call) {
						pass.Reportf(call.Pos(), "error result of %s discarded; on this path a swallowed error is silent data loss",
							types.ExprString(call.Fun))
					}
				}
			case *ast.DeferStmt:
				if errResultIndex(pass.Info, s.Call) >= 0 {
					pass.Reportf(s.Call.Pos(), "deferred call %s discards its error; on this path a swallowed error is silent data loss",
						types.ExprString(s.Call.Fun))
				}
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 {
					return true
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				idx := errResultIndex(pass.Info, call)
				if idx < 0 || idx >= len(s.Lhs) {
					return true
				}
				if id, ok := s.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(id.Pos(), "error result of %s assigned to _; on this path a swallowed error is silent data loss",
						types.ExprString(call.Fun))
				}
			}
			return true
		})
	}
}
