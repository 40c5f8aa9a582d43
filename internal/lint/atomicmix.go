package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMix flags mixed atomic/plain access to a struct field: once
// any code in the package reaches a field through sync/atomic
// (atomic.AddInt64(&x.f, 1), atomic.LoadInt64(&x.f[i]), ...), every
// plain read or write of that field is a data race unless a mutex
// serializes it against the atomic path. The Go memory model gives
// mixed access no guarantees at all — the race detector only catches
// the interleavings it happens to see, while this check makes the
// contract structural: a field is either fully atomic, or
// mutex-guarded at every plain access.
//
// Like lockguard, the check is intra-package, flow-insensitive and
// textual: a plain access under any lock on the same receiver chain
// (x.mu.Lock() guarding x.f) is accepted, composite-literal
// construction is exempt by shape, and deliberate unguarded reads
// (single-threaded init, test-only introspection) take a reasoned
// //lint:ok atomicmix directive. Fields reached atomically only at
// element granularity (&x.f[i]) permit plain slice-header reads —
// len, cap, range, reslicing — since those never touch element
// memory; element reads/writes and whole-field writes are still
// findings.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "flag struct fields accessed both via sync/atomic and by " +
		"plain read/write without a guarding mutex",
	Run: runAtomicMix,
}

// atomicFieldUse records how a field is reached atomically. elemOnly
// is true while every atomic access indexes into the field
// (&x.f[i]); any whole-field atomic access (&x.f) clears it.
type atomicFieldUse struct {
	elemOnly bool
}

func runAtomicMix(pass *Pass) {
	fields, exempt := collectAtomicFields(pass)
	if len(fields) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, fd := range enclosingFuncs(f) {
			checkAtomicMix(pass, fd, fields, exempt)
		}
	}
}

// collectAtomicFields finds every struct field whose address feeds a
// sync/atomic function and the AST nodes of those atomic accesses
// (exempt from the plain-access pass).
func collectAtomicFields(pass *Pass) (map[*types.Var]atomicFieldUse, map[ast.Node]bool) {
	fields := map[*types.Var]atomicFieldUse{}
	exempt := map[ast.Node]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				switch target := un.X.(type) {
				case *ast.SelectorExpr: // atomic.AddInt64(&x.f, 1)
					if v := fieldVar(pass.Info, target); v != nil {
						fields[v] = atomicFieldUse{elemOnly: false}
						exempt[target] = true
					}
				case *ast.IndexExpr: // atomic.AddInt64(&x.f[i], 1)
					sel, ok := target.X.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if v := fieldVar(pass.Info, sel); v != nil {
						if u, seen := fields[v]; !seen || u.elemOnly {
							fields[v] = atomicFieldUse{elemOnly: true}
						}
						exempt[target] = true
						exempt[sel] = true
					}
				}
			}
			return true
		})
	}
	return fields, exempt
}

// isAtomicCall reports whether the call invokes a package-level
// function of sync/atomic.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}

// fieldVar resolves a selector to the struct field it reads, or nil.
func fieldVar(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok {
		return nil
	}
	return v
}

func checkAtomicMix(pass *Pass, fd *ast.FuncDecl, fields map[*types.Var]atomicFieldUse, exempt map[ast.Node]bool) {
	// Pass 1: receiver chains this function locks (see lockguard) —
	// "lt.mu" for lt.mu.Lock()/RLock() calls anywhere in the body.
	locked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if base := baseExprString(sel.X); base != "" {
				locked[base] = true
			}
		}
		return true
	})

	// mutexGuards reports whether the function locks any mutex hanging
	// off the access's receiver chain — x.mu covers x.f, s.lt.mu covers
	// s.lt.counts.
	mutexGuards := func(base string) bool {
		for l := range locked {
			if l == base || strings.HasPrefix(l, base+".") {
				return true
			}
		}
		return false
	}

	report := func(pos ast.Node, base string, v *types.Var, how string) {
		pass.Reportf(pos.Pos(), "%s.%s is accessed via sync/atomic elsewhere in this package; this plain %s races with it (guard both with a mutex or make every access atomic)", base, v.Name(), how)
	}

	// Pass 2: plain accesses. Whole-field atomics flag every selector
	// access; element-only atomics flag indexed accesses and whole-field
	// writes but allow slice-header reads (len/cap/range/reslice).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if exempt[n] {
				return true
			}
			v := fieldVar(pass.Info, n)
			if v == nil {
				return true
			}
			u, tracked := fields[v]
			if !tracked || u.elemOnly {
				return true
			}
			base := baseExprString(n.X)
			if base == "" || mutexGuards(base) {
				return true
			}
			report(n, base, v, "access")
		case *ast.IndexExpr:
			if exempt[n] {
				return true
			}
			sel, ok := n.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v := fieldVar(pass.Info, sel)
			if v == nil {
				return true
			}
			u, tracked := fields[v]
			if !tracked || !u.elemOnly {
				return true // whole-field case already flagged at the selector
			}
			base := baseExprString(sel.X)
			if base == "" || mutexGuards(base) {
				return true
			}
			report(n, base, v, "element access")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				v := fieldVar(pass.Info, sel)
				if v == nil {
					continue
				}
				u, tracked := fields[v]
				if !tracked || !u.elemOnly {
					continue // whole-field case already flagged at the selector
				}
				base := baseExprString(sel.X)
				if base == "" || mutexGuards(base) {
					continue
				}
				report(sel, base, v, "whole-field write")
			}
		}
		return true
	})
}
