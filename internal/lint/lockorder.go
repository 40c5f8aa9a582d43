package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/ytcdn-sim/ytcdn/internal/lint/callgraph"
)

// LockOrder builds a lock-acquisition graph over the whole module and
// reports two hazards lockguard's per-field view cannot see:
//
//   - acquisition-order cycles: one path locks A then B while another
//     locks B then A (directly, or through a callee that may acquire B
//     — the call graph supplies the transitive may-acquire sets), the
//     classic AB/BA deadlock;
//   - a lock taken but not released on every return path, checked by
//     abstract interpretation over the function's control flow (defers
//     count as covering every exit).
//
// Lock identity is the declared mutex object (*types.Var): a struct
// field identifies the lock class across all instances — conservative,
// since two instances never alias, but cycles between distinct fields
// are real hazards regardless — and a local variable identifies
// itself. Embedded sync.Mutex receivers (t.Lock() on a struct that
// embeds the mutex) are not resolved; name the field. Sequencing
// within a function is source-order, best-effort; function literals
// run on their own schedule and are skipped. Intentional
// hand-off patterns (a locked return transferring ownership) are
// expressed with a reasoned //lint:ok directive.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "flag lock-acquisition-order cycles (AB/BA deadlocks, transitively " +
		"through calls) and locks not released on every return path",
	RunModule: runLockOrder,
}

func runLockOrder(p *ModulePass) {
	mayAcq := mayAcquireAll(p.Graph)
	lg := &lockGraph{adj: make(map[*types.Var]map[*types.Var]bool)}
	for _, n := range p.Graph.Nodes() {
		lockOrderWalk(n, mayAcq, lg)
	}
	lg.reportCycles(p)
	for _, n := range p.Graph.Nodes() {
		checkUnlockPaths(p, n)
	}
}

// lockVarOf resolves call to a (mutex variable, operation) pair when it
// is a Lock/RLock/Unlock/RUnlock on a sync.Mutex or sync.RWMutex
// reached through an identifier or a field chain.
func lockVarOf(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	v := varOf(info, sel.X)
	if v == nil || !isSyncLock(v.Type()) {
		return nil, ""
	}
	return v, op
}

// varOf resolves an identifier or field-selector chain to the variable
// object it denotes, or nil for anything more dynamic.
func varOf(info *types.Info, e ast.Expr) *types.Var {
	switch e := unparenExpr(e).(type) {
	case *ast.Ident:
		v, _ := objectOf(info, e).(*types.Var)
		return v
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			v, _ := s.Obj().(*types.Var)
			return v
		}
		// Qualified package-level variable: pkg.Var.
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

func unparenExpr(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isSyncLock reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex.
func isSyncLock(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockSet is a set of mutex objects.
type lockSet map[*types.Var]bool

// mayAcquireAll computes, for every node, the set of mutexes the
// function may acquire directly or through any callee (goroutine
// launches excluded: a spawned goroutine's acquisitions are not
// ordered under the caller's held set).
func mayAcquireAll(g *callgraph.Graph) map[*callgraph.Node]lockSet {
	acq := make(map[*callgraph.Node]lockSet, len(g.Nodes()))
	for _, n := range g.Nodes() {
		s := lockSet{}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if v, op := lockVarOf(n.Info, call); v != nil && (op == "Lock" || op == "RLock") {
				s[v] = true
			}
			return true
		})
		acq[n] = s
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			s := acq[n]
			for _, e := range n.Calls {
				if e.Kind == callgraph.Go {
					continue
				}
				for v := range acq[e.Callee] {
					if !s[v] {
						s[v] = true
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// lockGraph is the acquisition-order graph: an edge a→b means some
// path acquires b while holding a.
type lockGraph struct {
	adj   map[*types.Var]map[*types.Var]bool
	edges []lockGraphEdge // insertion order, for deterministic reporting
}

type lockGraphEdge struct {
	from, to *types.Var
	site     token.Pos
	via      string // callee short name for interprocedural edges, "" for direct
}

func (lg *lockGraph) add(from, to *types.Var, site token.Pos, via string) {
	if lg.adj[from] == nil {
		lg.adj[from] = make(map[*types.Var]bool)
	}
	if lg.adj[from][to] {
		return
	}
	lg.adj[from][to] = true
	lg.edges = append(lg.edges, lockGraphEdge{from: from, to: to, site: site, via: via})
}

// reaches reports whether to can reach from through the order graph.
func (lg *lockGraph) reaches(from, to *types.Var) bool {
	seen := lockSet{}
	var dfs func(v *types.Var) bool
	dfs = func(v *types.Var) bool {
		if v == to {
			return true
		}
		if seen[v] {
			return false
		}
		seen[v] = true
		for next := range lg.adj[v] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

// reportCycles flags every edge that participates in a cycle, at its
// first recorded site. Both directions of an AB/BA pair are reported,
// so each mis-ordered site gets its own finding (and its own
// suppression, if one side is the sanctioned order).
func (lg *lockGraph) reportCycles(p *ModulePass) {
	for _, e := range lg.edges {
		if !lg.reaches(e.to, e.from) {
			continue
		}
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (through call to %s)", e.via)
		}
		p.Reportf(e.site, "lock order cycle: %s acquired while holding %s%s, but another path acquires them in the opposite order, which can deadlock; pick one order and document it",
			lockName(p.Fset, e.to), lockName(p.Fset, e.from), via)
	}
}

// lockName renders a mutex variable with its declaration site, which
// disambiguates same-named fields across structs ("mu(writer.go:14)").
func lockName(fset *token.FileSet, v *types.Var) string {
	pos := fset.Position(v.Pos())
	name := pos.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s(%s:%d)", v.Name(), name, pos.Line)
}

// lockOrderWalk walks one function in source order, maintaining the
// held set, recording direct order edges at each acquisition and
// interprocedural edges at each call whose callee may acquire.
// Function literals are skipped: a closure runs on its own schedule,
// and its body gets no held-set context from the enclosing walk.
func lockOrderWalk(n *callgraph.Node, mayAcq map[*callgraph.Node]lockSet, lg *lockGraph) {
	deferred := deferredCalls(n.Decl.Body)
	siteEdges := make(map[token.Pos][]callgraph.Edge)
	for _, e := range n.Calls {
		if e.Kind == callgraph.Call || e.Kind == callgraph.Dynamic {
			siteEdges[e.Site] = append(siteEdges[e.Site], e)
		}
	}
	var held []*types.Var
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v, op := lockVarOf(n.Info, call); v != nil {
			switch op {
			case "Lock", "RLock":
				for _, h := range held {
					if h != v {
						lg.add(h, v, call.Pos(), "")
					}
				}
				held = appendHeld(held, v)
			case "Unlock", "RUnlock":
				if !deferred[call] { // a deferred unlock releases at return, not here
					held = removeHeld(held, v)
				}
			}
			return true
		}
		for _, e := range siteEdges[call.Pos()] {
			for v := range mayAcq[e.Callee] {
				for _, h := range held {
					if h != v {
						lg.add(h, v, call.Pos(), callgraph.ShortName(e.Callee.Func))
					}
				}
			}
		}
		return true
	})
}

func appendHeld(held []*types.Var, v *types.Var) []*types.Var {
	for _, h := range held {
		if h == v {
			return held
		}
	}
	return append(held, v)
}

func removeHeld(held []*types.Var, v *types.Var) []*types.Var {
	out := held[:0]
	for _, h := range held {
		if h != v {
			out = append(out, h)
		}
	}
	return out
}

// deferredCalls collects the call expressions that are defer operands.
func deferredCalls(body ast.Node) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		if d, ok := x.(*ast.DeferStmt); ok {
			out[d.Call] = true
		}
		return true
	})
	return out
}

// checkUnlockPaths runs the abstract interpreter over one function and
// reports every mutex that some return path leaves locked, at its
// acquisition site. A deferred unlock anywhere in the function covers
// all exits (conservative in the no-false-positive direction: a
// conditional defer still counts).
func checkUnlockPaths(p *ModulePass, n *callgraph.Node) {
	flow := newLockFlow(n.Info, n.Decl.Body)
	exits, ok := flow.run(n.Decl.Body)
	if !ok {
		return // goto or state explosion: stay silent rather than guess
	}
	reported := lockSet{}
	for _, exit := range exits {
		for v := range exit {
			if flow.deferredUnlock[v] || reported[v] {
				continue
			}
			reported[v] = true
			site, okSite := flow.lockSite[v]
			if !okSite {
				continue
			}
			p.Reportf(site, "%s is locked here but not released on every return path; unlock on each exit or defer the unlock", lockName(p.Fset, v))
		}
	}
}
