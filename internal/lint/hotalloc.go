package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc enforces the //perf:hot and //perf:noalloc annotation
// contracts at the AST/types level: inside an annotated function it
// flags the constructs that (may) heap-allocate — un-preallocated
// append, map and slice literals, &composite literals, new, make,
// closures, string<->[]byte conversions, and interface boxing at
// conversions and call arguments. //perf:hot tolerates the
// preallocation idiom (a make with explicit capacity and appends into
// it); //perf:noalloc flags every construct. The check is syntactic
// and deliberately stricter than the compiler's escape analysis
// (which internal/perfgate consults) — a construct the compiler proves
// stack-allocatable is still a finding here, silenced with a reasoned
// //lint:ok hotalloc directive so the proof is written down.
//
// HotAlloc also polices the annotation language itself: unknown
// //perf: verbs, contract verbs with trailing text or not attached to
// a function declaration, and malformed //perf:ok directives are all
// findings (stale annotations must not silently stop guarding).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag allocation constructs inside //perf:hot///perf:noalloc " +
		"functions and malformed //perf: annotations",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		checkPerfAnnotations(pass, f)
		for _, fd := range enclosingFuncs(f) {
			contracts := perfContracts(fd)
			if contracts[perfHot] || contracts[perfNoAlloc] {
				checkAllocs(pass, fd, contracts[perfNoAlloc])
			}
		}
	}
}

// checkPerfAnnotations validates every //perf: directive in the file:
// verbs must be known, contract verbs must be bare and sit in a
// function declaration's doc comment, and //perf:ok needs a known
// check plus a reason.
func checkPerfAnnotations(pass *Pass, f *ast.File) {
	// The set of comments that form function doc groups.
	docComments := map[*ast.Comment]bool{}
	for _, fd := range enclosingFuncs(f) {
		if fd.Doc != nil {
			for _, c := range fd.Doc.List {
				docComments[c] = true
			}
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parsePerfDirective(c)
			if !ok {
				continue
			}
			switch d.verb {
			case perfHot, perfNoAlloc, perfInline:
				if d.arg != "" {
					pass.Reportf(d.pos, "//perf:%s takes no argument (got %q)", d.verb, d.arg)
				}
				if !docComments[c] {
					pass.Reportf(d.pos, "stale //perf:%s: not attached to a function declaration", d.verb)
				}
			case perfOK:
				check, reason, _ := cutSpace(d.arg)
				if !perfOKChecks[check] {
					pass.Reportf(d.pos, "//perf:ok wants a check (escape or inline), got %q", check)
				} else if reason == "" {
					pass.Reportf(d.pos, "//perf:ok %s needs a reason: state why the flagged code is safe", check)
				}
			default:
				pass.Reportf(d.pos, "unknown //perf: directive %q (want hot, noalloc, inline or ok)", d.verb)
			}
		}
	}
}

// cutSpace splits s at the first run of spaces.
func cutSpace(s string) (head, tail string, found bool) {
	for i, r := range s {
		if r == ' ' || r == '\t' {
			head = s[:i]
			tail = s[i:]
			for len(tail) > 0 && (tail[0] == ' ' || tail[0] == '\t') {
				tail = tail[1:]
			}
			return head, tail, true
		}
	}
	return s, "", false
}

// checkAllocs walks one annotated function body. strict is true for
// //perf:noalloc (no preallocation exemption).
func checkAllocs(pass *Pass, fd *ast.FuncDecl, strict bool) {
	contract := perfHot
	if strict {
		contract = perfNoAlloc
	}
	prealloc := preallocatedSlices(pass, fd)
	// Map-index string conversions (m[string(b)]) are exempt: the
	// compiler elides the copy for direct map lookups, and the idiom is
	// exactly how an intern table avoids allocating on the hit path.
	exemptConv := mapIndexConversions(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal allocates in a //perf:%s function", contract)
			return false
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in a //perf:%s function", contract)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in a //perf:%s function", contract)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal allocates in a //perf:%s function", contract)
				}
			}
		case *ast.CallExpr:
			checkCallAlloc(pass, n, contract, strict, prealloc, exemptConv)
		}
		return true
	})
}

// checkCallAlloc classifies one call inside an annotated function.
func checkCallAlloc(pass *Pass, call *ast.CallExpr, contract string, strict bool, prealloc map[types.Object]bool, exemptConv map[*ast.CallExpr]bool) {
	switch fn := builtinName(pass.Info, call); fn {
	case "new":
		pass.Reportf(call.Pos(), "new allocates in a //perf:%s function", contract)
		return
	case "make":
		if t := pass.Info.TypeOf(call); t != nil && !strict && len(call.Args) == 3 {
			if _, isSlice := t.Underlying().(*types.Slice); isSlice {
				return // preallocation idiom: make with explicit capacity in a hot function
			}
		}
		pass.Reportf(call.Pos(), "make allocates in a //perf:%s function", contract)
		return
	case "append":
		if !strict && len(call.Args) > 0 {
			if id, ok := call.Args[0].(*ast.Ident); ok && prealloc[objectOf(pass.Info, id)] {
				return // append into a slice preallocated in this function
			}
		}
		pass.Reportf(call.Pos(), "un-preallocated append may allocate in a //perf:%s function", contract)
		return
	case "":
	default:
		return // other builtins (len, cap, copy, delete, panic, ...) do not allocate
	}

	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, call, tv.Type, contract, exemptConv)
		return
	}
	checkCallBoxing(pass, call, contract)
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}

// checkConversion flags allocating conversions: string<->byte/rune
// slices and boxing into an interface type.
func checkConversion(pass *Pass, call *ast.CallExpr, target types.Type, contract string, exemptConv map[*ast.CallExpr]bool) {
	if len(call.Args) != 1 {
		return
	}
	src := pass.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch {
	case isString(target) && isByteOrRuneSlice(src):
		if exemptConv[call] {
			return
		}
		pass.Reportf(call.Pos(), "[]byte->string conversion allocates in a //perf:%s function", contract)
	case isByteOrRuneSlice(target) && isString(src):
		pass.Reportf(call.Pos(), "string->[]byte conversion allocates in a //perf:%s function", contract)
	case types.IsInterface(target.Underlying()) && !types.IsInterface(src.Underlying()) && !isUntypedNil(src):
		pass.Reportf(call.Pos(), "conversion boxes %s into an interface in a //perf:%s function", src, contract)
	}
}

// checkCallBoxing flags non-interface arguments passed to interface
// parameters — each such argument may allocate its box.
func checkCallBoxing(pass *Pass, call *ast.CallExpr, contract string) {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if ok && sig.Params() != nil {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
				if call.Ellipsis.IsValid() {
					continue // s... passes the slice through, no per-element boxing
				}
			case i < params.Len():
				pt = params.At(i).Type()
			default:
				continue
			}
			at := pass.Info.TypeOf(arg)
			if at == nil || isUntypedNil(at) {
				continue
			}
			if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Underlying()) {
				pass.Reportf(arg.Pos(), "argument boxes %s into interface %s in a //perf:%s function", at, pt, contract)
			}
		}
	}
}

// preallocatedSlices collects locals bound by `x := make([]T, n, c)`
// (explicit capacity) anywhere in the function — the destinations the
// //perf:hot append exemption recognizes.
func preallocatedSlices(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || builtinName(pass.Info, call) != "make" || len(call.Args) != 3 {
				continue
			}
			if _, isSlice := pass.Info.TypeOf(call).Underlying().(*types.Slice); !isSlice {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := objectOf(pass.Info, id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// mapIndexConversions collects string(b) conversions used directly as
// a map index.
func mapIndexConversions(pass *Pass, fd *ast.FuncDecl) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if _, isMap := pass.Info.TypeOf(ix.X).Underlying().(*types.Map); !isMap {
			return true
		}
		if call, ok := ix.Index.(*ast.CallExpr); ok {
			if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && isString(tv.Type) {
				out[call] = true
			}
		}
		return true
	})
	return out
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
