package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/ytcdn-sim/ytcdn/internal/lint/callgraph"
)

// DetReach is the interprocedural extension of rngpurity and detmap:
// starting from the deterministic-plane entry points — the simulator's
// session intake, the DES engine loop, every SelectionPolicy
// implementation, and the analysis-layer iterator aggregators — every
// function reachable through the call graph must be determinism-pure.
// A wall-clock read or ambient-RNG call three frames below a policy
// method breaks bit-identical replay just as surely as one written
// directly into it, and the per-package analyzers cannot see across
// that boundary. Each finding carries the call-graph path from the
// entry point to the offending site, so the reader can judge whether
// the edge is real or a CHA over-approximation (and, if the latter,
// suppress it with a reason saying so).
//
// The reachable set's boundary — every call that leaves the module —
// is pinned in testdata/detreach.golden; see DetReachFrontier.
var DetReach = &Analyzer{
	Name: "detreach",
	Doc: "require every function reachable from a deterministic-plane entry " +
		"point to be determinism-pure (no transitive wall clock, ambient RNG, " +
		"unforked RNG construction, or order-sensitive map iteration)",
	RunModule: runDetReach,
}

// detReachEntryPoints documents the root set in one place; the logic
// lives in detReachRoots. Package matching is by import-path suffix so
// the fixture modules' stand-in packages participate.
//
//	(*internal/cdn.Simulator).SubmitSession  — session intake, runs the redirection chain
//	(*internal/des.Engine).Run               — the event loop itself
//	ResolveDNS / ServeOrRedirect             — on every type implementing internal/core.SelectionPolicy
//	internal/analysis.*Iter, StreamSessions  — the trace aggregators behind the parity goldens

// runDetReach reports every determinism-impure fact in functions
// reachable from the entry points, with the BFS path that reaches them.
func runDetReach(p *ModulePass) {
	roots := detReachRoots(p.Units, p.Graph)
	parents := p.Graph.ReachableFrom(roots)
	for _, n := range p.Graph.Nodes() {
		if _, ok := parents[n]; !ok {
			continue
		}
		if statsExempt(n) {
			continue
		}
		facts := detReachFacts(n)
		if len(facts) == 0 {
			continue
		}
		path := detReachPath(parents, n)
		for _, f := range facts {
			p.Reportf(f.pos, "%s; deterministic path: %s", f.what, path)
		}
	}
}

// statsExempt reports whether n lives in internal/stats, the sanctioned
// wrapper around math/rand: its internals are where the module's
// randomness is supposed to live, fed only by the study seed.
func statsExempt(n *callgraph.Node) bool {
	return n.Func.Pkg() != nil && pkgPathHasSuffix(n.Func.Pkg().Path(), "internal/stats")
}

// detReachRoots selects the deterministic-plane entry points from the
// graph. The result is sorted by node name because g.Nodes() is.
func detReachRoots(units []*Unit, g *callgraph.Graph) []*callgraph.Node {
	ifaces := policyInterfaces(units)
	var roots []*callgraph.Node
	for _, n := range g.Nodes() {
		fn := n.Func
		pkg := fn.Pkg()
		if pkg == nil {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		switch {
		case recv != nil && fn.Name() == "SubmitSession" &&
			recvNamed(recv) == "Simulator" && pkgPathHasSuffix(pkg.Path(), "internal/cdn"):
			roots = append(roots, n)
		case recv != nil && fn.Name() == "Run" &&
			recvNamed(recv) == "Engine" && pkgPathHasSuffix(pkg.Path(), "internal/des"):
			roots = append(roots, n)
		case recv != nil && (fn.Name() == "ResolveDNS" || fn.Name() == "ServeOrRedirect") &&
			implementsAny(recv.Type(), ifaces):
			roots = append(roots, n)
		case recv == nil && pkgPathHasSuffix(pkg.Path(), "internal/analysis") &&
			(strings.HasSuffix(fn.Name(), "Iter") || fn.Name() == "StreamSessions"):
			roots = append(roots, n)
		}
	}
	return roots
}

// policyInterfaces finds SelectionPolicy in every loaded internal/core
// package (the real one, plus any fixture stand-in).
func policyInterfaces(units []*Unit) []*types.Interface {
	var out []*types.Interface
	for _, u := range units {
		if !pkgPathHasSuffix(u.Pkg.Path(), "internal/core") {
			continue
		}
		tn, ok := u.Pkg.Scope().Lookup("SelectionPolicy").(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			out = append(out, iface)
		}
	}
	return out
}

func recvNamed(recv *types.Var) string {
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func implementsAny(t types.Type, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if types.Implements(t, iface) {
			return true
		}
	}
	return false
}

// detFact is one determinism-impure fact inside a reachable function.
type detFact struct {
	pos  token.Pos
	what string
}

// detReachFacts collects the impure facts of a single node: wall-clock
// and ambient-RNG calls leaving the module, unforked stats.NewRNG
// construction, and order-sensitive map iteration (the detmap checks,
// re-run here because the deterministic plane is exactly where they
// are load-bearing).
func detReachFacts(n *callgraph.Node) []detFact {
	var out []detFact
	for _, e := range n.External {
		fn := e.Func
		if fn.Pkg() == nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				out = append(out, detFact{e.Site, fmt.Sprintf("wall clock on the deterministic plane: time.%s", fn.Name())})
			}
		case "math/rand", "math/rand/v2":
			out = append(out, detFact{e.Site, fmt.Sprintf("ambient RNG on the deterministic plane: %s.%s", fn.Pkg().Path(), fn.Name())})
		case "crypto/rand":
			out = append(out, detFact{e.Site, fmt.Sprintf("crypto/rand on the deterministic plane: crypto/rand.%s is never reproducible", fn.Name())})
		}
	}
	for _, e := range n.Calls {
		cf := e.Callee.Func
		if cf.Name() == "NewRNG" && cf.Pkg() != nil && pkgPathHasSuffix(cf.Pkg().Path(), "internal/stats") {
			out = append(out, detFact{e.Site, "unforked RNG construction on the deterministic plane: stats.NewRNG; derive child streams with Fork or ForkIndexed"})
		}
	}
	forEachMapRangeIssue(n.Info, n.Decl, func(pos token.Pos, format string, args ...any) {
		out = append(out, detFact{pos, "map-order: " + fmt.Sprintf(format, args...)})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].what < out[j].what
	})
	return out
}

// detReachPath renders the BFS path entry point → node with short
// names: "(*cdn.Simulator).SubmitSession -> cdn.pickServer -> ...".
func detReachPath(parents map[*callgraph.Node]*callgraph.Node, n *callgraph.Node) string {
	nodes := callgraph.PathFrom(parents, n)
	parts := make([]string, len(nodes))
	for i, pn := range nodes {
		parts[i] = callgraph.ShortName(pn.Func)
	}
	return strings.Join(parts, " -> ")
}

// DetReachFrontier renders the purity frontier of the loaded module:
// the entry points, every module function reachable from them, and the
// sorted set of external (out-of-module) calls the reachable set
// makes. The render is position-free — names only, module path prefix
// trimmed — so unrelated edits do not churn it. The frontier for this
// repository is pinned in internal/lint/testdata/detreach.golden and
// enforced by TestDetReachFrontierGolden; regenerate with
// DETREACH_REGEN=1 after an intentional change.
func DetReachFrontier(units []*Unit) string {
	g := BuildGraph(units)
	roots := detReachRoots(units, g)
	parents := g.ReachableFrom(roots)
	trim := moduleTrimmer(units)

	var b strings.Builder
	b.WriteString("ytcdn detreach frontier v1\n")
	b.WriteString("\nentrypoints:\n")
	for _, r := range roots {
		b.WriteString("  " + trim(r.Name) + "\n")
	}

	b.WriteString("\nreachable:\n")
	external := make(map[string]bool)
	for _, n := range g.Nodes() {
		if _, ok := parents[n]; !ok {
			continue
		}
		b.WriteString("  " + trim(n.Name) + "\n")
		for _, e := range n.External {
			external[callgraph.FuncName(e.Func)] = true
		}
	}

	b.WriteString("\nexternal frontier:\n")
	names := make([]string, 0, len(external))
	for name := range external {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString("  " + trim(name) + "\n")
	}
	return b.String()
}

// moduleTrimmer returns a function that strips the module import-path
// prefix (the longest common "/"-separated prefix of the loaded
// packages) from rendered names, keeping the golden independent of
// where the module is hosted.
func moduleTrimmer(units []*Unit) func(string) string {
	var parts []string
	for i, u := range units {
		ps := strings.Split(u.ImportPath, "/")
		if i == 0 {
			parts = ps
			continue
		}
		j := 0
		for j < len(parts) && j < len(ps) && parts[j] == ps[j] {
			j++
		}
		parts = parts[:j]
	}
	prefix := strings.Join(parts, "/")
	if prefix == "" {
		return func(s string) string { return s }
	}
	return func(s string) string { return strings.ReplaceAll(s, prefix+"/", "") }
}
