package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// LockGuard verifies `// guarded by <mutex>` field annotations: a
// struct field so annotated may only be read or written in functions
// that also lock the named mutex on the same receiver chain (x.F needs
// an x.mu.Lock or x.mu.RLock somewhere in the function). The check is
// intra-package and deliberately best-effort — it matches lock and
// access by the textual receiver chain, it does not prove ordering,
// and code that reaches a guarded field only through locking accessor
// methods is trivially clean because only direct selector accesses are
// examined. Composite-literal initialization (construction before the
// value is shared) is exempt. Contract-level escapes — registration
// phases that are single-threaded by convention, immutable-after-sort
// reads — are expressed with a reasoned //lint:ok directive.
//
// LockGuard also requires every Lock or RLock statement on a
// sync.Mutex or sync.RWMutex to be followed directly by a defer of its
// unlock on the same receiver (x.mu.Lock(); defer x.mu.Unlock()), so
// a lock is released on every return path by construction. A lock
// that is handed to the caller on purpose takes a reasoned //lint:ok.
//
// And it rejects sync/atomic's package-level functions
// (atomic.AddInt64(&x.f, 1), ...): their operand is a plain variable
// that any other line may read or write without the atomic. A typed
// atomic (atomic.Int64, atomic.Pointer[T], ...) cannot be accessed
// plainly, so the compiler enforces what a mixed-access check would.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc: "check that fields annotated `// guarded by <mutex>` are only " +
		"accessed in functions that lock that mutex, that every Lock is " +
		"followed directly by its deferred unlock, and that shared " +
		"counters use typed atomics, not sync/atomic's functions",
	Run: runLockGuard,
}

// guardedByRe matches the annotation form only — a comment line that
// starts with "guarded by" — so prose mentioning guards in passing
// ("each guarded by its own once") does not create an annotation.
var guardedByRe = regexp.MustCompile(`(?m)^guarded by (\w+)`)

// guardedField records one annotated field and the mutex field name
// protecting it.
type guardedField struct {
	mutex      string
	structName string
}

func runLockGuard(pass *Pass) {
	guards := collectGuards(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(sel.Pos(), "atomic.%s works on a plain variable that other code may access without it; use a typed atomic (atomic.Int64, atomic.Pointer[T], ...)", fn.Name())
				}
			}
			return true
		})
		checkDeferredUnlocks(pass, f)
		if len(guards) == 0 {
			continue
		}
		for _, fd := range enclosingFuncs(f) {
			checkFuncGuards(pass, fd, guards)
		}
	}
}

// collectGuards scans struct declarations for `// guarded by <mutex>`
// annotations on fields (line comment or doc comment) and resolves the
// annotated fields to their types.Var objects.
func collectGuards(pass *Pass) map[*types.Var]guardedField {
	guards := make(map[*types.Var]guardedField)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutex := guardAnnotation(field)
				if mutex == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						guards[v] = guardedField{mutex: mutex, structName: ts.Name.Name}
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func checkFuncGuards(pass *Pass, fd *ast.FuncDecl, guards map[*types.Var]guardedField) {
	// Pass 1: the set of receiver chains this function locks, e.g.
	// "p.mu" for p.mu.Lock(), p.mu.RLock() or a defer of either.
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

	// Pass 2: every direct selector access to a guarded field must have
	// a matching <base>.<mutex> lock in this function. Composite-literal
	// field keys are not selector expressions, so construction is
	// exempt by shape.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		v, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, ok := guards[v]
		if !ok {
			return true
		}
		base := baseExprString(sel.X)
		if base == "" {
			return true // unmatchable chain: best-effort, stay silent
		}
		if !locked[base+"."+g.mutex] {
			pass.Reportf(sel.Pos(), "%s.%s is guarded by %s, but this function never locks %s.%s (annotation on %s.%s)", base, v.Name(), g.mutex, base, g.mutex, g.structName, v.Name())
		}
		return true
	})
}

// unlockOf names the unlock that must be deferred after each lock.
var unlockOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// checkDeferredUnlocks reports every Lock or RLock statement on a sync
// mutex that the next statement of its list does not pair with a defer
// of the matching unlock on the same receiver.
func checkDeferredUnlocks(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, s := range list {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			recv, lock := mutexCall(pass.Info, es.X)
			unlock := unlockOf[lock]
			if unlock == "" {
				continue
			}
			if i+1 < len(list) {
				if d, ok := list[i+1].(*ast.DeferStmt); ok {
					if r, m := mutexCall(pass.Info, d.Call); r == recv && m == unlock {
						continue
					}
				}
			}
			pass.Reportf(s.Pos(), "%s.%s() is not followed directly by defer %s.%s(): release a lock by defer so every return path unlocks it", recv, lock, recv, unlock)
		}
		return true
	})
}

// mutexCall returns the receiver text and method name when e calls a
// sync.Mutex or sync.RWMutex method (embedded or not).
func mutexCall(info *types.Info, e ast.Expr) (recv, method string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	method, t := methodName(info, call)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" ||
		(named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", ""
	}
	return types.ExprString(call.Fun.(*ast.SelectorExpr).X), method
}
