package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetMap flags `range` statements over maps whose iteration order can
// leak into output: appending to a slice that the function never
// sorts afterwards, writing to a capture sink (trace emission order is
// pinned by the parity goldens), and accumulating floats (addition is
// not associative, so the sum depends on iteration order at ulp
// level). Map-order nondeterminism is the canonical way to silently
// break the repo's bit-identical parity claims, because Go randomizes
// the order on every run.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc: "flag map iterations whose order feeds order-sensitive output " +
		"(unsorted accumulation, capture-sink writes, float sums)",
	Run: runDetMap,
}

func runDetMap(pass *Pass) {
	for _, f := range pass.Files {
		for _, fd := range enclosingFuncs(f) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						checkMapRangeBody(pass, fd, rs)
					}
				}
				return true
			})
		}
	}
}

func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, fd, rs, n)
		case *ast.CallExpr:
			if name, recv := methodName(pass.Info, n); name == "Record" && recv != nil && typeFromPkg(recv, "internal/capture") {
				pass.Reportf(n.Pos(), "capture-sink write inside range over map: emission order becomes nondeterministic; iterate keys in sorted order")
			}
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	info := pass.Info
	lhs, rhs := as.Lhs[0], as.Rhs[0]
	if !outerTarget(info, rs, lhs) {
		return
	}
	target := types.ExprString(lhs)

	// x = append(x, ...) with no later sort of x in this function.
	if as.Tok == token.ASSIGN {
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(info, call) &&
			len(call.Args) > 0 && types.ExprString(call.Args[0]) == target {
			if !sortedAfter(fd, rs, target) {
				pass.Reportf(as.Pos(), "append to %s under range over map without a later sort in this function: element order is nondeterministic; sort the result or iterate keys in sorted order", target)
			}
			return
		}
	}

	// Float accumulation: x += v, x -= v, or x = x + v.
	if isFloat(info.TypeOf(lhs)) {
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			pass.Reportf(as.Pos(), "float accumulation into %s in map iteration order: addition is not associative, so the result depends on the random order; accumulate over sorted keys", target)
		case token.ASSIGN:
			if be, ok := rhs.(*ast.BinaryExpr); ok && (be.Op == token.ADD || be.Op == token.SUB) &&
				types.ExprString(be.X) == target {
				pass.Reportf(as.Pos(), "float accumulation into %s in map iteration order: addition is not associative, so the result depends on the random order; accumulate over sorted keys", target)
			}
		}
	}
}

// outerTarget reports whether the assignment target lives outside the
// range statement: an identifier (or the root of a selector chain)
// declared before the loop. Loop-local accumulators reset every
// iteration and carry no cross-iteration order; keyed writes (m2[k] =
// ...) are order-independent.
func outerTarget(info *types.Info, rs *ast.RangeStmt, lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := objectOf(info, lhs)
		return obj != nil && !(obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End())
	case *ast.SelectorExpr:
		// Walk to the root of the chain: s.field is loop-local when s
		// is. An unresolvable root (method call result) counts as
		// outer.
		root := lhs.X
		for {
			switch r := root.(type) {
			case *ast.SelectorExpr:
				root = r.X
				continue
			case *ast.ParenExpr:
				root = r.X
				continue
			case *ast.Ident:
				obj := objectOf(info, r)
				return obj == nil || !(obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End())
			}
			return true
		}
	}
	return false
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sortNames are the sort entry points accepted as restoring
// determinism when the accumulated slice is passed to one of them.
var sortNames = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Strings": true, "Ints": true, "Float64s": true,
	"SortFunc": true, "SortStableFunc": true,
}

// sortedAfter reports whether, after the range statement, the function
// passes target to a sort.* or slices.Sort* call (or target itself
// receives a .Sort() style method call).
func sortedAfter(fd *ast.FuncDecl, rs *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortNames[sel.Sel.Name] {
			return true
		}
		// sort.X(target, ...) / slices.X(target, ...)
		for _, arg := range call.Args {
			if types.ExprString(arg) == target {
				found = true
				return false
			}
		}
		// target.Sort() and friends.
		if types.ExprString(sel.X) == target {
			found = true
			return false
		}
		return true
	})
	return found
}
