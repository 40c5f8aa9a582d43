package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// pkgPathHasSuffix reports whether path is exactly suffix or ends in
// "/"+suffix. Matching by suffix rather than full import path lets the
// analyzers recognize both the real module packages
// (github.com/ytcdn-sim/ytcdn/internal/stats) and the stand-in
// packages the testdata fixtures declare under their own module paths.
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// wallClockPlane lists the package-path suffixes of the wall-clock
// observability plane: the phase profiler, the live /metrics endpoint
// and the command-line wiring of both. They read the clock by design.
var wallClockPlane = []string{
	"internal/obs/profile",
	"internal/obs/obshttp",
	"internal/obscli",
}

// deterministicPlane reports whether pkg is on the deterministic
// plane, the scope rngpurity and obsplane share: every module package
// except internal/stats (the sanctioned wrapper around math/rand), the
// wall-clock plane and package main (the commands, which time their
// runs). Everything else may feed the bit-identical parity suites,
// through a call, a callback or an interface implementation, so the
// scope is a deny-list: a new package is policed from its first line.
func deterministicPlane(pkg *types.Package) bool {
	if pkg.Name() == "main" || pkgPathHasSuffix(pkg.Path(), "internal/stats") {
		return false
	}
	for _, s := range wallClockPlane {
		if pkgPathHasSuffix(pkg.Path(), s) {
			return false
		}
	}
	return true
}

// isStatsRNG reports whether t is (a pointer to) the stats.RNG stream
// type.
func isStatsRNG(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil && pkgPathHasSuffix(obj.Pkg().Path(), "internal/stats")
}

// typeFromPkg reports whether t is declared in (or is an interface
// named name from) a package whose import path ends in pkgSuffix.
func typeFromPkg(t types.Type, pkgSuffix string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && pkgPathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// objectOf resolves an identifier to its object, following Uses then
// Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// baseExprString renders the receiver chain of a selector (everything
// left of the final field) as source text — "p", "h.inner" — for the
// textual base matching lockguard and rngshare use. Parens are
// stripped; anything non-trivial renders as "" and never matches.
func baseExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := baseExprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return baseExprString(e.X)
	case *ast.StarExpr:
		return baseExprString(e.X)
	}
	return ""
}

// enclosingFuncs returns every function declaration in the file, in
// order. Function literals are visited as part of their enclosing
// declaration.
func enclosingFuncs(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// within reports whether node n (by position) lies inside the span of
// outer.
func within(n, outer ast.Node) bool {
	return n.Pos() >= outer.Pos() && n.End() <= outer.End()
}

// isPkgFunc reports whether the call invokes the package-level
// function pkgSuffix.funcName (e.g. "internal/stats".NewRNG or
// "time".Now).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgSuffix, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if fn.Name() != funcName || fn.Pkg() == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return pkgPathHasSuffix(fn.Pkg().Path(), pkgSuffix)
}

// methodName returns the called method's name and receiver type when
// call is a method call, or "", nil otherwise.
func methodName(info *types.Info, call *ast.CallExpr) (string, types.Type) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", nil
	}
	return fn.Name(), sig.Recv().Type()
}
