package lint

import (
	"go/ast"
	"strconv"
)

// obsPlaneCoreScope lists the deterministic core packages: the ones
// whose event execution must be bit-identical with metrics on or off.
// They may record into the sim-time instruments of internal/obs, but
// they must not reach the wall-clock plane — not even indirectly
// through an observability helper.
var obsPlaneCoreScope = []string{
	"internal/cdn",
	"internal/core",
	"internal/des",
	"internal/workload",
}

// obsPlaneWallPkgs lists the wall-clock-plane packages the core is
// forbidden to import.
var obsPlaneWallPkgs = []string{
	"internal/obs/profile",
	"internal/obs/obshttp",
	"internal/obscli",
}

// ObsPlane enforces the two-plane observability split. rngpurity
// already bans lexical time.Now/Since/Until inside the deterministic
// core; obsplane closes the remaining routes around it:
//
//   - the deterministic core packages (internal/{cdn,core,des,
//     workload}) may not import the wall-clock plane (obs/profile,
//     obs/obshttp, obscli), so a core package cannot acquire a clock
//     by calling through an observability helper; and
//   - internal/obs itself — the instrument package the core records
//     into — may not touch the wall clock, so enabling metrics cannot
//     smuggle wall-clock reads into event execution.
//
// Together with rngpurity this makes the zero-perturbation guarantee
// structural: instruments reachable from the core are keyed on sim
// time and event counts only.
var ObsPlane = &Analyzer{
	Name: "obsplane",
	Doc: "keep the deterministic core off the wall-clock observability " +
		"plane: no obs/profile, obs/obshttp or obscli imports in core " +
		"packages, and no wall clock inside internal/obs",
	Run: runObsPlane,
}

func runObsPlane(pass *Pass) {
	path := pass.Pkg.Path()
	inCore := false
	for _, s := range obsPlaneCoreScope {
		if pkgPathHasSuffix(path, s) {
			inCore = true
			break
		}
	}
	isObsRoot := pkgPathHasSuffix(path, "internal/obs")
	if !inCore && !isObsRoot {
		return
	}
	for _, f := range pass.Files {
		if inCore {
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				for _, wall := range obsPlaneWallPkgs {
					if pkgPathHasSuffix(ipath, wall) {
						pass.Reportf(imp.Pos(), "import of %s in a deterministic core package: the wall-clock observability plane is harness/cmd-only; record into sim-time instruments (internal/obs) instead", ipath)
					}
				}
			}
		}
		if isObsRoot {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, fn := range []string{"Now", "Since", "Until"} {
					if isPkgFunc(pass.Info, call, "time", fn) {
						pass.Reportf(call.Pos(), "time.%s in internal/obs: the deterministic-plane instrument package must stay wall-clock-free; wall-clock metrics belong in obs/profile", fn)
					}
				}
				return true
			})
		}
	}
}
