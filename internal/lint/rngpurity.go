package lint

import (
	"go/ast"
	"go/token"
	"strconv"
)

// rngPurityScope lists the package-path suffixes rngpurity polices:
// everything whose output feeds the bit-identical parity suites. The
// stats package itself is exempt (it is the sanctioned wrapper around
// math/rand), as are cmd/ mains. _test.go files, where benchmark timing
// legitimately reads the wall clock, never reach the analyzer: Load
// type-checks only a package's GoFiles.
var rngPurityScope = []string{
	"internal/cdn",
	"internal/des",
	"internal/core",
	"internal/workload",
	"internal/analysis",
	"internal/experiments",
}

// RNGPurity forbids ambient sources of nondeterminism in simulation
// and analysis packages: the wall clock (time.Now/Since/Until), the
// global math/rand generator (and ad-hoc rand.New sources), and
// crypto/rand. All randomness must flow from the study seed through
// stats.RNG streams, and new streams must be derived with
// Fork/ForkIndexed — stats.NewRNG with a computed (arithmetic) seed
// re-invents seed derivation and breaks order-independence, so only a
// passed-through seed value is accepted as its argument.
var RNGPurity = &Analyzer{
	Name: "rngpurity",
	Doc: "forbid wall-clock and ambient RNG use in simulation/analysis " +
		"packages; require Fork/ForkIndexed for stream derivation",
	Run: runRNGPurity,
}

func runRNGPurity(pass *Pass) {
	inScope := false
	for _, s := range rngPurityScope {
		if pkgPathHasSuffix(pass.Pkg.Path(), s) {
			inScope = true
			break
		}
	}
	if !inScope {
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
				pass.Reportf(imp.Pos(), "import of %s in a simulation/analysis package: all randomness must come from seeded stats.RNG streams", path)
			case "crypto/rand":
				pass.Reportf(imp.Pos(), "import of crypto/rand in a simulation/analysis package: cryptographic randomness is never reproducible; use seeded stats.RNG streams")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, fn := range []string{"Now", "Since", "Until"} {
				if isPkgFunc(pass.Info, call, "time", fn) {
					pass.Reportf(call.Pos(), "time.%s in a simulation/analysis package: the wall clock is not reproducible; derive instants from the simulated clock", fn)
				}
			}
			if isPkgFunc(pass.Info, call, "internal/stats", "NewRNG") && len(call.Args) == 1 && !isAtomicSeedExpr(pass, call.Args[0]) {
				pass.Reportf(call.Pos(), "stats.NewRNG with a computed seed: ad-hoc seed arithmetic is order- and layout-dependent; derive child streams with Fork or ForkIndexed on a constant label")
			}
			return true
		})
	}
}

// isAtomicSeedExpr reports whether the seed expression merely passes a
// value through — an identifier, a field chain, a literal (possibly
// negated), or a plain conversion of one of those. Anything with
// arithmetic or a real call is a computed seed.
func isAtomicSeedExpr(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.SelectorExpr:
		return isAtomicSeedExpr(pass, e.X)
	case *ast.ParenExpr:
		return isAtomicSeedExpr(pass, e.X)
	case *ast.UnaryExpr:
		return (e.Op == token.SUB || e.Op == token.ADD) && isAtomicSeedExpr(pass, e.X)
	case *ast.CallExpr:
		// Allow a conversion of an atomic value, e.g. int64(seed) —
		// but only a real type conversion; any function call is
		// computation.
		if len(e.Args) != 1 {
			return false
		}
		if tv, ok := pass.Info.Types[e.Fun]; !ok || !tv.IsType() {
			return false
		}
		return isAtomicSeedExpr(pass, e.Args[0])
	}
	return false
}
