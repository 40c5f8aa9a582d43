package lint_test

import (
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/lint"
	"github.com/ytcdn-sim/ytcdn/internal/lint/linttest"
)

// The module-analyzer fixtures are whole modules, not per-package
// directories: the interprocedural analyzers need the full call graph
// (interface dispatch in one package, implementation in another) to
// reproduce the shapes they exist to catch.

func TestDetReachFixture(t *testing.T) {
	linttest.Run(t, "testdata/detreach", lint.DetReach, "./...")
}

func TestLockOrderFixture(t *testing.T) {
	linttest.Run(t, "testdata/lockorder", lint.LockOrder, "./...")
}

func TestGoLeakFixture(t *testing.T) {
	linttest.Run(t, "testdata/goleak", lint.GoLeak, "./...")
}
