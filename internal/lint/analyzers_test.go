package lint_test

import (
	"strings"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/lint"
	"github.com/ytcdn-sim/ytcdn/internal/lint/linttest"
)

func TestDetMapFlagged(t *testing.T) {
	linttest.Run(t, "testdata/detmap", lint.DetMap, "./flagged")
}

func TestDetMapClean(t *testing.T) {
	linttest.Run(t, "testdata/detmap", lint.DetMap, "./clean")
}

func TestDetMapSuppressed(t *testing.T) {
	linttest.Run(t, "testdata/detmap", lint.DetMap, "./suppressed")
}

func TestRNGPurityFlagged(t *testing.T) {
	linttest.Run(t, "testdata/rngpurity", lint.RNGPurity, "./internal/cdn")
}

func TestRNGPurityClean(t *testing.T) {
	linttest.Run(t, "testdata/rngpurity", lint.RNGPurity, "./internal/core")
}

func TestRNGPurityOutOfScope(t *testing.T) {
	linttest.Run(t, "testdata/rngpurity", lint.RNGPurity, "./outside")
}

func TestRNGPuritySuppressed(t *testing.T) {
	linttest.Run(t, "testdata/rngpurity", lint.RNGPurity, "./internal/des")
}

func TestRNGShareFlagged(t *testing.T) {
	linttest.Run(t, "testdata/rngshare", lint.RNGShare, "./flagged")
}

func TestRNGShareClean(t *testing.T) {
	linttest.Run(t, "testdata/rngshare", lint.RNGShare, "./clean")
}

func TestRNGShareSuppressed(t *testing.T) {
	linttest.Run(t, "testdata/rngshare", lint.RNGShare, "./suppressed")
}

func TestLockGuardFlagged(t *testing.T) {
	linttest.Run(t, "testdata/lockguard", lint.LockGuard, "./flagged")
}

func TestLockGuardClean(t *testing.T) {
	linttest.Run(t, "testdata/lockguard", lint.LockGuard, "./clean")
}

func TestLockGuardSuppressed(t *testing.T) {
	linttest.Run(t, "testdata/lockguard", lint.LockGuard, "./suppressed")
}

// The atomicmix cases: lockguard rejects sync/atomic's package-level
// functions, so a field reached atomically is a typed atomic and
// cannot also be reached plainly.

func TestAtomicMixFlagged(t *testing.T) {
	linttest.Run(t, "testdata/atomicmix", lint.LockGuard, "./flagged")
}

func TestAtomicMixClean(t *testing.T) {
	linttest.Run(t, "testdata/atomicmix", lint.LockGuard, "./clean")
}

func TestObsPlaneFlaggedImport(t *testing.T) {
	linttest.Run(t, "testdata/obsplane", lint.ObsPlane, "./internal/cdn")
}

func TestObsPlaneFlaggedWallClock(t *testing.T) {
	linttest.Run(t, "testdata/obsplane", lint.ObsPlane, "./internal/obs")
}

func TestObsPlaneClean(t *testing.T) {
	linttest.Run(t, "testdata/obsplane", lint.ObsPlane, "./internal/core")
}

func TestObsPlaneWallPlaneOutOfScope(t *testing.T) {
	linttest.Run(t, "testdata/obsplane", lint.ObsPlane, "./internal/obs/profile")
}

func TestObsPlaneSuppressed(t *testing.T) {
	linttest.Run(t, "testdata/obsplane", lint.ObsPlane, "./internal/des")
}

// TestSuppressionNeedsReason pins the directive contract: a //lint:ok
// with no reason is itself reported and does not suppress the finding
// it sits on.
func TestSuppressionNeedsReason(t *testing.T) {
	units, err := lint.Load("testdata/detmap", "./badok")
	if err != nil {
		t.Fatalf("loading badok fixture: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("got %d units, want 1", len(units))
	}
	diags, _ := lint.Check(units, []*lint.Analyzer{lint.DetMap})
	var reasonless, finding bool
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "needs a reason"):
			reasonless = true
		case strings.Contains(d.Message, "append to out"):
			finding = true
		}
	}
	if !reasonless {
		t.Errorf("reasonless //lint:ok was not reported; diagnostics: %v", diags)
	}
	if !finding {
		t.Errorf("reasonless //lint:ok suppressed the finding it sits on; diagnostics: %v", diags)
	}
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want exactly 2 (finding + reasonless directive): %v", len(diags), diags)
	}
}
