// Package callgraph constructs a whole-module call graph from parsed,
// type-checked packages, using nothing beyond go/ast and go/types — the
// same stdlib-only constraint the rest of the lint layer honours.
//
// Interface dispatch is resolved by class-hierarchy analysis (CHA):
// a call through an interface method gets an edge to that method on
// every named type in the module that implements the interface. Calls
// through function-typed values (function-typed struct fields, params,
// variables, and method values) get edges to every address-taken
// function in the module with a matching signature. Both are
// over-approximations, which is the right direction for the analyses
// built on top: reachability must never miss a real path.
//
// Function literals are not separate nodes: a closure's calls are
// attributed to the enclosing declared function. For reachability that
// is conservative (if the enclosing function runs, the closure may),
// and it keeps the graph aligned with where a human looks for the
// code. Calls with no source in the module (standard library,
// vendored export data) are recorded as external edges — they form
// the purity frontier the detreach analyzer pins.
//
// Known soundness caveats, shared with every CHA construction:
// reflection (reflect.Value.Call), method expressions used as values
// (T.Method), and code generated at runtime are invisible; conversely
// CHA edges over-approximate (a dynamic call gets edges to impossible
// targets of the right shape). See TESTING.md, "Interprocedural
// layer".
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Pkg is one loaded package: the unit of input to Build.
type Pkg struct {
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// EdgeKind classifies how a call site invokes its callee.
type EdgeKind uint8

const (
	// Call is an ordinary static call: the callee is known exactly.
	Call EdgeKind = iota
	// Dynamic is a call through an interface method (resolved by CHA)
	// or a function-typed value (resolved by signature matching).
	Dynamic
	// Defer is a deferred call; it runs on the caller's return path.
	Defer
	// Go launches the callee on a new goroutine.
	Go
)

func (k EdgeKind) String() string {
	switch k {
	case Call:
		return "call"
	case Dynamic:
		return "dynamic"
	case Defer:
		return "defer"
	case Go:
		return "go"
	}
	return "?"
}

// Node is one declared function or method with source in the module.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	// Info is the declaring package's type information, for analyzers
	// that inspect the body.
	Info *types.Info
	// Name is the stable full render, e.g.
	// "(*path/to/cdn.Simulator).runChain" or "path/to/analysis.SummarizeIter".
	Name string
	// AddressTaken reports that the function's value escapes somewhere
	// in the module (method value, assignment, argument) — making it a
	// candidate target for calls through function-typed values.
	AddressTaken bool
	// Calls are edges to module functions, in source order of their
	// sites (dynamic fan-outs sorted by callee name within a site).
	Calls []Edge
	// External are calls to functions with no source in the module
	// (standard library and export-data-only dependencies).
	External []ExternalEdge
}

// Edge is one call from a node to another module node.
type Edge struct {
	Callee *Node
	Site   token.Pos
	Kind   EdgeKind
}

// ExternalEdge is one call leaving the module.
type ExternalEdge struct {
	Func *types.Func
	Site token.Pos
	Kind EdgeKind
}

// Graph is the whole-module call graph.
type Graph struct {
	Fset  *token.FileSet
	nodes map[*types.Func]*Node
	// sorted caches Nodes() order.
	sorted []*Node
}

// Node returns the graph node for fn, or nil when fn has no source in
// the module. Instantiated generic functions resolve to their origin's
// node — the graph has one node per declaration, not per instantiation.
func (g *Graph) Node(fn *types.Func) *Node {
	if n := g.nodes[fn]; n != nil {
		return n
	}
	if o := fn.Origin(); o != fn {
		return g.nodes[o]
	}
	return nil
}

// Nodes returns every node sorted by Name (position-free, so the order
// survives unrelated edits).
func (g *Graph) Nodes() []*Node { return g.sorted }

// FuncName renders fn the way the graph names nodes: methods as
// "(*pkg/path.Recv).Name", functions as "pkg/path.Name".
func FuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			ptr = "*"
		}
		return "(" + ptr + types.TypeString(t, nil) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// ShortName renders fn with bare package names instead of full import
// paths — for diagnostics, where full paths drown the message.
func ShortName(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Name() }
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			ptr = "*"
		}
		return "(" + ptr + types.TypeString(t, qual) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// Build constructs the graph over the given packages, which must all
// share fset. Pass every package of the module: CHA and address-taken
// resolution are only as complete as the source they see.
func Build(fset *token.FileSet, pkgs []Pkg) *Graph {
	b := &builder{
		g:           &Graph{Fset: fset, nodes: make(map[*types.Func]*Node)},
		pkgs:        pkgs,
		calleeIdent: make(map[*ast.Ident]bool),
		ifaceCache:  make(map[*types.Func][]*Node),
	}
	b.collectNodes()
	b.collectNamedTypes()
	b.collectAddressTaken()
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, okf := p.Info.Defs[fd.Name].(*types.Func)
				if !okf {
					continue
				}
				b.addCalls(b.g.nodes[fn], p.Info, fd.Body)
			}
		}
	}
	b.g.sorted = make([]*Node, 0, len(b.g.nodes))
	for _, n := range b.g.nodes {
		b.g.sorted = append(b.g.sorted, n)
	}
	sort.Slice(b.g.sorted, func(i, j int) bool { return b.g.sorted[i].Name < b.g.sorted[j].Name })
	return b.g
}

type builder struct {
	g    *Graph
	pkgs []Pkg
	// named holds every non-interface named type declared in the
	// module, sorted by type name — the CHA class hierarchy.
	named []*types.Named
	// funcValueTargets maps a receiver-stripped signature render to the
	// address-taken functions matching it.
	funcValueTargets map[string][]*Node
	// calleeIdent marks identifiers that appear as the function operand
	// of a call — every *other* use of a function-valued identifier is
	// an address taken.
	calleeIdent map[*ast.Ident]bool
	ifaceCache  map[*types.Func][]*Node
}

func (b *builder) collectNodes() {
	for _, p := range b.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, okf := p.Info.Defs[fd.Name].(*types.Func)
				if !okf {
					continue
				}
				b.g.nodes[fn] = &Node{
					Func: fn, Decl: fd, Info: p.Info,
					Name: FuncName(fn),
				}
			}
		}
	}
}

func (b *builder) collectNamedTypes() {
	for _, p := range b.pkgs {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			b.named = append(b.named, named)
		}
	}
	sort.Slice(b.named, func(i, j int) bool {
		return b.named[i].Obj().Id() < b.named[j].Obj().Id()
	})
}

// collectAddressTaken finds every use of a declared function outside a
// call position and indexes the nodes by receiver-stripped signature.
func (b *builder) collectAddressTaken() {
	// Pass 1: mark the identifiers that are call operands.
	for _, p := range b.pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id := calleeNameIdent(call.Fun); id != nil {
					b.calleeIdent[id] = true
				}
				return true
			})
		}
	}
	// Pass 2: every other use of a *types.Func is an address taken.
	b.funcValueTargets = make(map[string][]*Node)
	for _, p := range b.pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || b.calleeIdent[id] {
				continue
			}
			node := b.g.Node(fn)
			if node == nil || node.AddressTaken {
				continue
			}
			node.AddressTaken = true
		}
	}
	// Build the signature index in deterministic order.
	var taken []*Node
	for _, n := range b.g.nodes {
		if n.AddressTaken {
			taken = append(taken, n)
		}
	}
	sort.Slice(taken, func(i, j int) bool { return taken[i].Name < taken[j].Name })
	for _, n := range taken {
		key := strippedSig(n.Func)
		b.funcValueTargets[key] = append(b.funcValueTargets[key], n)
	}
}

// calleeNameIdent returns the identifier naming the called function in
// a call operand expression, unwrapping parens and generic
// instantiation: f(...), pkg.F(...), x.m(...), f[T](...).
func calleeNameIdent(fun ast.Expr) *ast.Ident {
	switch e := unparen(fun).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return calleeNameIdent(e.X)
	case *ast.IndexListExpr:
		return calleeNameIdent(e.X)
	}
	return nil
}

// unparen strips parentheses (go.mod pins a language version predating
// ast.Unparen).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// strippedSig renders fn's signature with any receiver removed, the key
// used to match function values to address-taken functions (a method
// value's type has no receiver).
func strippedSig(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return fn.Type().String()
	}
	return sigKey(sig)
}

// sigKey renders a signature with receiver and parameter names erased,
// so `func(i int)` on the declaration matches `func(int)` at the value
// type — names are not part of the call compatibility being modeled.
func sigKey(sig *types.Signature) string {
	unname := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := 0; i < t.Len(); i++ {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil, unname(sig.Params()), unname(sig.Results()), sig.Variadic()), nil)
}

// addCalls walks body (function literals included) and records every
// call as an edge of node.
func (b *builder) addCalls(node *Node, info *types.Info, body ast.Node) {
	if node == nil {
		return
	}
	// Kind of each call expression that is the operand of go/defer.
	kinds := make(map[*ast.CallExpr]EdgeKind)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			kinds[s.Call] = Go
		case *ast.DeferStmt:
			kinds[s.Call] = Defer
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, okk := kinds[call]
		if !okk {
			kind = Call
		}
		b.resolveCall(node, info, call, kind)
		return true
	})
}

// resolveCall classifies one call site and appends the resulting
// edge(s) to node.
func (b *builder) resolveCall(node *Node, info *types.Info, call *ast.CallExpr, kind EdgeKind) {
	fun := unparen(call.Fun)
	// Type conversions are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}
	// Unwrap generic instantiation.
	switch e := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := info.Types[e.X]; ok && tv.IsValue() {
			fun = e.X
		}
	case *ast.IndexListExpr:
		fun = e.X
	}

	switch e := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			b.addStatic(node, obj, call.Pos(), kind)
			return
		case *types.Builtin, *types.TypeName, *types.Nil:
			return
		}
		// Function-typed variable or parameter.
		b.addFuncValue(node, info, fun, call.Pos(), kind)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					b.addInterfaceCall(node, fn, call.Pos(), kind)
				} else {
					b.addStatic(node, fn, call.Pos(), kind)
				}
			case types.FieldVal:
				// Calling a function-typed struct field.
				b.addFuncValue(node, info, fun, call.Pos(), kind)
			case types.MethodExpr:
				// (T).m used as a function and called immediately.
				if fn, okf := sel.Obj().(*types.Func); okf {
					b.addStatic(node, fn, call.Pos(), kind)
				}
			}
			return
		}
		// Qualified identifier: pkg.F or pkg.Var.
		switch obj := info.Uses[e.Sel].(type) {
		case *types.Func:
			b.addStatic(node, obj, call.Pos(), kind)
		case *types.Var:
			b.addFuncValue(node, info, fun, call.Pos(), kind)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already attributed
		// to this node by the enclosing walk.
	default:
		// Arbitrary function-typed expression (call result, index...).
		b.addFuncValue(node, info, fun, call.Pos(), kind)
	}
}

func (b *builder) addStatic(node *Node, fn *types.Func, site token.Pos, kind EdgeKind) {
	if callee := b.g.Node(fn); callee != nil {
		node.Calls = append(node.Calls, Edge{Callee: callee, Site: site, Kind: kind})
		return
	}
	node.External = append(node.External, ExternalEdge{Func: fn, Site: site, Kind: kind})
}

// addInterfaceCall fans an interface-method call out to every module
// type implementing the interface (CHA).
func (b *builder) addInterfaceCall(node *Node, m *types.Func, site token.Pos, kind EdgeKind) {
	targets, ok := b.ifaceCache[m]
	if !ok {
		targets = b.chaTargets(m)
		b.ifaceCache[m] = targets
	}
	if len(targets) == 0 {
		// No module implementation in sight: the dispatch leaves the
		// module (an implementation supplied by a dependency or test).
		node.External = append(node.External, ExternalEdge{Func: m, Site: site, Kind: kind})
		return
	}
	if kind == Call {
		kind = Dynamic // preserve go/defer kinds on the fan-out
	}
	for _, t := range targets {
		node.Calls = append(node.Calls, Edge{Callee: t, Site: site, Kind: kind})
	}
}

// chaTargets lists the module methods an interface method may dispatch
// to, sorted by node name.
func (b *builder) chaTargets(m *types.Func) []*Node {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	seen := make(map[*Node]bool)
	for _, named := range b.named {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		fn, okf := obj.(*types.Func)
		if !okf {
			continue
		}
		if n := b.g.Node(fn); n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// addFuncValue fans a call through a function-typed value out to every
// address-taken module function with the same signature.
func (b *builder) addFuncValue(node *Node, info *types.Info, fun ast.Expr, site token.Pos, kind EdgeKind) {
	tv, ok := info.Types[fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	key := sigKey(sig)
	for _, t := range b.funcValueTargets[key] {
		k := kind
		if k == Call {
			k = Dynamic
		}
		node.Calls = append(node.Calls, Edge{Callee: t, Site: site, Kind: k})
	}
}

// ReachableFrom walks the graph breadth-first from roots and returns,
// for every reachable node, its BFS predecessor (roots map to nil).
// The traversal order is deterministic: roots sorted by name, edges in
// recorded order.
func (g *Graph) ReachableFrom(roots []*Node) map[*Node]*Node {
	parents := make(map[*Node]*Node)
	sorted := append([]*Node(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	queue := make([]*Node, 0, len(sorted))
	for _, r := range sorted {
		if _, ok := parents[r]; ok {
			continue
		}
		parents[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			if _, ok := parents[e.Callee]; ok {
				continue
			}
			parents[e.Callee] = n
			queue = append(queue, e.Callee)
		}
	}
	return parents
}

// PathFrom reconstructs the BFS path root → ... → n from a
// ReachableFrom result.
func PathFrom(parents map[*Node]*Node, n *Node) []*Node {
	var rev []*Node
	for cur := n; cur != nil; cur = parents[cur] {
		rev = append(rev, cur)
		if parents[cur] == nil {
			break
		}
	}
	out := make([]*Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// Dump renders the whole graph deterministically: nodes by name, each
// with its module edges and external calls. The -graph flag of
// cmd/ytcdn-lint ships this as a CI artifact.
func (g *Graph) Dump(w io.StringWriter) {
	nodes := g.Nodes()
	edges := 0
	for _, n := range nodes {
		edges += len(n.Calls)
	}
	w.WriteString(fmt.Sprintf("ytcdn callgraph v1: %d nodes, %d edges\n", len(nodes), edges))
	for _, n := range nodes {
		flags := ""
		if n.AddressTaken {
			flags = " address-taken"
		}
		w.WriteString(fmt.Sprintf("func %s%s\n", n.Name, flags))
		for _, e := range n.Calls {
			w.WriteString(fmt.Sprintf("  %s %s @%s\n", e.Kind, e.Callee.Name, g.pos(e.Site)))
		}
		ext := make([]string, 0, len(n.External))
		for _, e := range n.External {
			ext = append(ext, fmt.Sprintf("  external %s %s @%s\n", e.Kind, FuncName(e.Func), g.pos(e.Site)))
		}
		sort.Strings(ext)
		for _, line := range ext {
			w.WriteString(line)
		}
	}
}

// pos renders a position with a base filename, keeping the dump free
// of absolute paths.
func (g *Graph) pos(p token.Pos) string {
	pos := g.Fset.Position(p)
	name := pos.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pos.Line)
}
