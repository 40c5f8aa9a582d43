package lint

import "strconv"

// ObsPlane keeps the deterministic plane (see deterministicPlane) off
// the wall-clock observability plane: no package on it may import
// obs/profile, obs/obshttp or obscli. rngpurity bans clock reads on
// the deterministic plane but exempts the wall-clock plane, so an
// import is the one route left by which deterministic code could
// acquire a clock: calling through an observability helper. The
// sim-time instruments the core records into live in internal/obs,
// which is on the deterministic plane and so wall-clock-free.
var ObsPlane = &Analyzer{
	Name: "obsplane",
	Doc: "keep the deterministic plane off the wall-clock observability " +
		"plane: no obs/profile, obs/obshttp or obscli imports on it",
	Run: runObsPlane,
}

func runObsPlane(pass *Pass) {
	if !deterministicPlane(pass.Pkg) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, wall := range wallClockPlane {
				if pkgPathHasSuffix(path, wall) {
					pass.Reportf(imp.Pos(), "import of %s on the deterministic plane: the wall-clock observability plane is for commands only; record into sim-time instruments (internal/obs) instead", path)
				}
			}
		}
	}
}
