package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/ytcdn-sim/ytcdn/internal/lint/callgraph"
)

// GoLeak requires every goroutine launched in a non-test package to
// carry join evidence: something the goroutine does must tie its
// lifetime to a collector elsewhere in the module. Three handshakes
// count, all matched by the identity of the declared variable
// (*types.Var), transitively through the goroutine's callees:
//
//   - it calls Done on a WaitGroup that some code Waits on;
//   - it sends on or closes a channel that some code receives from;
//   - it receives from (or ranges over) a channel that some code sends
//     on or closes — the quit-channel shape.
//
// A goroutine with none of these outlives the run that spawned it: in
// a simulator that executes many deterministic runs per process, a
// leaked worker from run N keeps mutating shared state while run N+1
// measures, which is a nondeterminism bug wearing a concurrency hat.
// Intentionally process-long goroutines (an HTTP listener serving
// /metrics until exit) are declared with a reasoned //lint:ok.
//
// Identity matching is conservative: a WaitGroup or channel passed as
// a plain argument into a separately-declared function binds to the
// callee's parameter variable, not the caller's, and will not match —
// capture it in a closure or hang it on a shared struct field to make
// the evidence visible.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "flag goroutines with no join evidence (no Done on a Waited " +
		"WaitGroup, no channel handshake tying their lifetime to a collector)",
	RunModule: runGoLeak,
}

// joinFacts is what a goroutine (or any function) does that can serve
// as its half of a join handshake.
type joinFacts struct {
	done map[*types.Var]bool // WaitGroups Done()'d
	sent map[*types.Var]bool // channels sent on or closed
	recv map[*types.Var]bool // channels received from or ranged over
}

func newJoinFacts() *joinFacts {
	return &joinFacts{
		done: make(map[*types.Var]bool),
		sent: make(map[*types.Var]bool),
		recv: make(map[*types.Var]bool),
	}
}

func (f *joinFacts) absorb(o *joinFacts) bool {
	changed := false
	for v := range o.done {
		if !f.done[v] {
			f.done[v] = true
			changed = true
		}
	}
	for v := range o.sent {
		if !f.sent[v] {
			f.sent[v] = true
			changed = true
		}
	}
	for v := range o.recv {
		if !f.recv[v] {
			f.recv[v] = true
			changed = true
		}
	}
	return changed
}

// joinIndex is the module-wide other half: who waits, who receives,
// who sends.
type joinIndex struct {
	waited map[*types.Var]bool // WaitGroups with a Wait() call
	recv   map[*types.Var]bool // channels received from somewhere
	sent   map[*types.Var]bool // channels sent on or closed somewhere
}

func runGoLeak(p *ModulePass) {
	idx := buildJoinIndex(p.Units)
	sums := goroutineSummaries(p.Graph)
	for _, n := range p.Graph.Nodes() {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			gs, ok := x.(*ast.GoStmt)
			if !ok {
				return true
			}
			facts := payloadFacts(n, gs, sums)
			if joined(facts, idx) {
				return true
			}
			p.Reportf(gs.Pos(), "goroutine has no join evidence: it never calls Done on a Waited WaitGroup and no channel handshake ties its lifetime to a collector; join it (WaitGroup, result channel, or quit channel) so it cannot outlive the run")
			return true
		})
	}
}

func joined(f *joinFacts, idx *joinIndex) bool {
	for v := range f.done {
		if idx.waited[v] {
			return true
		}
	}
	for v := range f.sent {
		if idx.recv[v] {
			return true
		}
	}
	for v := range f.recv {
		if idx.sent[v] {
			return true
		}
	}
	return false
}

// buildJoinIndex scans every loaded file for the collector half of the
// handshakes.
func buildJoinIndex(units []*Unit) *joinIndex {
	idx := &joinIndex{
		waited: make(map[*types.Var]bool),
		recv:   make(map[*types.Var]bool),
		sent:   make(map[*types.Var]bool),
	}
	for _, u := range units {
		for _, f := range u.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
						if v := varOf(u.Info, sel.X); v != nil && isWaitGroup(v.Type()) {
							idx.waited[v] = true
						}
					}
					if isCloseBuiltin(u.Info, x) && len(x.Args) == 1 {
						if v := chanVarOf(u.Info, x.Args[0]); v != nil {
							idx.sent[v] = true
						}
					}
				case *ast.SendStmt:
					if v := chanVarOf(u.Info, x.Chan); v != nil {
						idx.sent[v] = true
					}
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						if v := chanVarOf(u.Info, x.X); v != nil {
							idx.recv[v] = true
						}
					}
				case *ast.RangeStmt:
					if v := chanVarOf(u.Info, x.X); v != nil {
						idx.recv[v] = true
					}
				}
				return true
			})
		}
	}
	return idx
}

// goroutineSummaries computes each node's joinFacts, transitively
// through Call/Dynamic/Defer edges (a nested `go` is its own
// goroutine's business, not this one's join evidence).
func goroutineSummaries(g *callgraph.Graph) map[*callgraph.Node]*joinFacts {
	sums := make(map[*callgraph.Node]*joinFacts, len(g.Nodes()))
	for _, n := range g.Nodes() {
		f := newJoinFacts()
		collectJoinFacts(n.Info, n.Decl.Body, f)
		sums[n] = f
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			for _, e := range n.Calls {
				if e.Kind == callgraph.Go {
					continue
				}
				if sums[n].absorb(sums[e.Callee]) {
					changed = true
				}
			}
		}
	}
	return sums
}

// collectJoinFacts gathers the direct handshake actions in node.
func collectJoinFacts(info *types.Info, node ast.Node, f *joinFacts) {
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if v := varOf(info, sel.X); v != nil && isWaitGroup(v.Type()) {
					f.done[v] = true
				}
			}
			if isCloseBuiltin(info, x) && len(x.Args) == 1 {
				if v := chanVarOf(info, x.Args[0]); v != nil {
					f.sent[v] = true
				}
			}
		case *ast.SendStmt:
			if v := chanVarOf(info, x.Chan); v != nil {
				f.sent[v] = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if v := chanVarOf(info, x.X); v != nil {
					f.recv[v] = true
				}
			}
		case *ast.RangeStmt:
			if v := chanVarOf(info, x.X); v != nil {
				f.recv[v] = true
			}
		}
		return true
	})
}

// payloadFacts computes the goroutine's side of the handshake: a
// closure payload contributes its body plus the summaries of everything
// it calls (the enclosing node's edges whose sites fall inside the
// literal); a named payload contributes the callee summaries recorded
// for the go statement's site.
func payloadFacts(n *callgraph.Node, gs *ast.GoStmt, sums map[*callgraph.Node]*joinFacts) *joinFacts {
	f := newJoinFacts()
	if lit, ok := unparenExpr(gs.Call.Fun).(*ast.FuncLit); ok {
		collectJoinFacts(n.Info, lit.Body, f)
		for _, e := range n.Calls {
			if e.Site >= lit.Pos() && e.Site <= lit.End() {
				f.absorb(sums[e.Callee])
			}
		}
		return f
	}
	for _, e := range n.Calls {
		if e.Kind == callgraph.Go && e.Site == gs.Call.Pos() {
			f.absorb(sums[e.Callee])
		}
	}
	return f
}

func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// chanVarOf resolves e to a variable of channel type.
func chanVarOf(info *types.Info, e ast.Expr) *types.Var {
	v := varOf(info, e)
	if v == nil {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Chan); !ok {
		return nil
	}
	return v
}

func isCloseBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparenExpr(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}
