package lint_test

import (
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/lint"
	"github.com/ytcdn-sim/ytcdn/internal/lint/linttest"
)

// The module-analyzer fixture is a whole module, not a per-package
// directory: detreach needs the full call graph (interface dispatch in
// one package, implementation in another) to reproduce the shapes it
// exists to catch.

func TestDetReachFixture(t *testing.T) {
	linttest.Run(t, "testdata/detreach", lint.DetReach, "./...")
}
