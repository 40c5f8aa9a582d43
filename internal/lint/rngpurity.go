package lint

import (
	"go/ast"
	"go/token"
	"strconv"
)

// RNGPurity forbids ambient sources of nondeterminism on the
// deterministic plane (see deterministicPlane): the wall clock
// (time.Now/Since/Until), math/rand (the global generator and ad-hoc
// sources alike) and crypto/rand. All randomness must flow from the
// study seed through stats.RNG streams, and new streams must be
// derived with Fork/ForkIndexed: stats.NewRNG takes only a
// passed-through seed value, because a computed or converted seed
// re-invents seed derivation and breaks order-independence.
//
// The rule runs on every package of the plane, so an impure function
// is flagged where it is written, however the deterministic code
// reaches it: directly, through a helper in another package, or
// through an interface it implements. _test.go files, where benchmark
// timing legitimately reads the wall clock, never reach the analyzer:
// Load type-checks only a package's GoFiles.
var RNGPurity = &Analyzer{
	Name: "rngpurity",
	Doc: "forbid wall-clock and ambient RNG use on the deterministic " +
		"plane; require Fork/ForkIndexed for stream derivation",
	Run: runRNGPurity,
}

func runRNGPurity(pass *Pass) {
	if !deterministicPlane(pass.Pkg) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch path {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "import of %s on the deterministic plane: all randomness must come from seeded stats.RNG streams", path)
			case "crypto/rand":
				pass.Reportf(imp.Pos(), "import of crypto/rand on the deterministic plane: cryptographic randomness is never reproducible; use seeded stats.RNG streams")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, fn := range []string{"Now", "Since", "Until"} {
				if isPkgFunc(pass.Info, call, "time", fn) {
					pass.Reportf(call.Pos(), "time.%s on the deterministic plane: the wall clock is not reproducible; derive instants from the simulated clock, and keep wall-clock timing in obs/profile", fn)
				}
			}
			if isPkgFunc(pass.Info, call, "internal/stats", "NewRNG") && len(call.Args) == 1 && !isAtomicSeedExpr(call.Args[0]) {
				pass.Reportf(call.Pos(), "stats.NewRNG with a computed seed: ad-hoc seed arithmetic is order- and layout-dependent; derive child streams with Fork or ForkIndexed on a constant label")
			}
			return true
		})
	}
}

// isAtomicSeedExpr reports whether the seed expression merely passes a
// value through: an identifier, a field chain or a literal (possibly
// negated). Anything else computes a seed, a type conversion included:
// int64(srv) turns a value that is not a seed, such as a server index,
// into one.
func isAtomicSeedExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.SelectorExpr:
		return isAtomicSeedExpr(e.X)
	case *ast.ParenExpr:
		return isAtomicSeedExpr(e.X)
	case *ast.UnaryExpr:
		return (e.Op == token.SUB || e.Op == token.ADD) && isAtomicSeedExpr(e.X)
	}
	return false
}
