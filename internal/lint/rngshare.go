package lint

import (
	"go/ast"
	"go/types"
)

// RNGShare enforces the fork-per-owner contract on *stats.RNG: a
// stream's draw methods mutate internal generator state and are not
// safe for concurrent use, so a stream captured by a `go` closure (or
// handed to a worker-pool closure from internal/par) must not also be
// drawn from on the spawning path, and a stream drawn from inside a
// goroutine spawned in a loop is shared between the loop's goroutine
// instances. Calling Fork, ForkIndexed or Seed on a shared stream is
// fine — those read only the immutable seed, which is exactly why the
// contract is fork-per-owner: each goroutine derives its own child.
var RNGShare = &Analyzer{
	Name: "rngshare",
	Doc: "flag *stats.RNG streams drawn from by both a goroutine and " +
		"its spawning path (or by looped/pooled goroutines)",
	Run: runRNGShare,
}

func runRNGShare(pass *Pass) {
	for _, f := range pass.Files {
		for _, fd := range enclosingFuncs(f) {
			checkFuncRNGShare(pass, fd)
		}
	}
}

// spawnSite is one place a function hands work to other goroutines:
// a go statement, or a closure passed to an internal/par pool helper.
type spawnSite struct {
	node   ast.Node // the subtree whose RNG uses run concurrently
	pooled bool     // closure runs on multiple pool workers at once
	looped bool     // go statement sits inside a loop
}

func checkFuncRNGShare(pass *Pass, fd *ast.FuncDecl) {
	var sites []spawnSite

	var visit func(n ast.Node, inLoop bool)
	visit = func(n ast.Node, inLoop bool) {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inLoop = true
		case *ast.GoStmt:
			sites = append(sites, spawnSite{node: n, looped: inLoop})
		case *ast.CallExpr:
			if isParPoolCall(pass, n) {
				for _, arg := range n.Args {
					if fl, ok := arg.(*ast.FuncLit); ok {
						sites = append(sites, spawnSite{node: fl, pooled: true})
					}
				}
			}
		}
		for _, c := range childNodes(n) {
			visit(c, inLoop)
		}
	}
	visit(fd.Body, false)

	for _, site := range sites {
		for _, use := range capturedDrawUses(pass, site.node) {
			obj := pass.Info.Uses[use]
			switch {
			case site.pooled:
				pass.Reportf(use.Pos(), "*stats.RNG %s is drawn from inside a worker-pool closure: pool workers run it concurrently; fork a per-item stream with Fork/ForkIndexed", obj.Name())
			case site.looped:
				pass.Reportf(use.Pos(), "*stats.RNG %s is drawn from inside a goroutine spawned in a loop: the loop's goroutines share one stream; fork a per-goroutine stream with Fork/ForkIndexed", obj.Name())
			case drawnOutside(pass, fd, site.node, obj):
				pass.Reportf(use.Pos(), "*stats.RNG %s is drawn from by both this goroutine and its spawning path: streams are fork-per-owner; give the goroutine its own Fork/ForkIndexed child", obj.Name())
			}
		}
	}
}

// isParPoolCall reports whether call invokes a function from the
// internal/par worker-pool package.
func isParPoolCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && pkgPathHasSuffix(fn.Pkg().Path(), "internal/par")
}

// capturedDrawUses returns identifiers inside the spawn subtree that
// draw from a *stats.RNG declared outside it.
func capturedDrawUses(pass *Pass, site ast.Node) []*ast.Ident {
	var out []*ast.Ident
	parentOf := map[ast.Node]ast.Node{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		for _, c := range childNodes(n) {
			parentOf[c] = n
			walk(c)
		}
	}
	walk(site)

	ast.Inspect(site, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || !isStatsRNG(obj.Type()) {
			return true
		}
		if obj.Pos() >= site.Pos() && obj.Pos() <= site.End() {
			return true // stream local to the goroutine: owned, not shared
		}
		if isSafeStreamUse(parentOf, id) {
			return true
		}
		out = append(out, id)
		return true
	})
	return out
}

// safeStreamMethods are the *stats.RNG methods that read only the
// immutable seed and are documented safe for concurrent use.
var safeStreamMethods = map[string]bool{"Fork": true, "ForkIndexed": true, "Seed": true}

// isSafeStreamUse reports whether the identifier is the receiver of a
// Fork/ForkIndexed/Seed call — the one concurrency-safe way to touch a
// shared stream.
func isSafeStreamUse(parentOf map[ast.Node]ast.Node, id *ast.Ident) bool {
	sel, ok := parentOf[id].(*ast.SelectorExpr)
	if !ok || sel.X != ast.Expr(id) || !safeStreamMethods[sel.Sel.Name] {
		return false
	}
	call, ok := parentOf[sel].(*ast.CallExpr)
	return ok && call.Fun == ast.Expr(sel)
}

// drawnOutside reports whether obj is drawn from in fd's body outside
// the spawn subtree (its declaration and safe Fork-style uses do not
// count).
func drawnOutside(pass *Pass, fd *ast.FuncDecl, site ast.Node, obj types.Object) bool {
	parentOf := map[ast.Node]ast.Node{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		for _, c := range childNodes(n) {
			parentOf[c] = n
			walk(c)
		}
	}
	walk(fd.Body)

	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found || (n != nil && within(n, site)) {
			return !found
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if pass.Info.Uses[id] != obj {
			return true
		}
		if isSafeStreamUse(parentOf, id) {
			return true
		}
		found = true
		return false
	})
	return found
}

// childNodes lists the direct AST children of n, in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}
