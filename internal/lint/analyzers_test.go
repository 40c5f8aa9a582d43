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

func TestHotAllocFlagged(t *testing.T) {
	linttest.Run(t, "testdata/hotalloc", lint.HotAlloc, "./flagged")
}

func TestHotAllocClean(t *testing.T) {
	linttest.Run(t, "testdata/hotalloc", lint.HotAlloc, "./clean")
}

func TestHotAllocSuppressed(t *testing.T) {
	linttest.Run(t, "testdata/hotalloc", lint.HotAlloc, "./suppressed")
}

// TestHotAllocAnnotationErrors pins the annotation-language findings.
// They sit on the //perf: directive lines themselves, where a // want
// comment would change the directive text, so the fixture is checked
// by message here instead (same pattern as TestSuppressionNeedsReason).
func TestHotAllocAnnotationErrors(t *testing.T) {
	units, err := lint.Load("testdata/hotalloc", "./badperf")
	if err != nil {
		t.Fatalf("loading badperf fixture: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("got %d units, want 1", len(units))
	}
	diags, _ := lint.Check(units, []*lint.Analyzer{lint.HotAlloc})
	wants := []string{
		`unknown //perf: directive "fast"`,
		"stale //perf:hot",
		"//perf:noalloc takes no argument",
		"//perf:ok wants a check",
		"//perf:ok escape needs a reason",
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q; got: %v", w, diags)
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics, want exactly %d: %v", len(diags), len(wants), diags)
	}
}

func TestAtomicMixFlagged(t *testing.T) {
	linttest.Run(t, "testdata/atomicmix", lint.AtomicMix, "./flagged")
}

func TestAtomicMixClean(t *testing.T) {
	linttest.Run(t, "testdata/atomicmix", lint.AtomicMix, "./clean")
}

func TestAtomicMixSuppressed(t *testing.T) {
	linttest.Run(t, "testdata/atomicmix", lint.AtomicMix, "./suppressed")
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
