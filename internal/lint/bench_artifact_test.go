package lint

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs/report"
)

// TestLintBenchArtifact emits BENCH_lint.json (schema ytcdn.report/v1)
// for CI when BENCH_LINT_JSON names the output path: wall time for
// loading and type-checking the module and for the full analyzer suite
// through Check, so a structural regression in the static layer (an
// accidentally quadratic pass) shows up as a tracked number rather
// than a slower CI job.
func TestLintBenchArtifact(t *testing.T) {
	out := os.Getenv("BENCH_LINT_JSON")
	if out == "" {
		t.Skip("set BENCH_LINT_JSON to emit the benchmark artifact")
	}

	t0 := time.Now()
	units, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	loadSecs := time.Since(t0).Seconds()

	t1 := time.Now()
	kept, silenced := Check(units, Analyzers())
	analysisSecs := time.Since(t1).Seconds()

	rep := report.New("lint-bench").
		Set("scope", "./... (full module, all five analyzers through Check)").
		Add("lint.load_seconds", loadSecs, "s").
		Add("lint.analysis_seconds", analysisSecs, "s").
		Add("lint.packages", float64(len(units)), "count").
		Add("lint.findings", float64(len(kept)), "count").
		Add("lint.suppressed", float64(len(silenced)), "count")
	if err := rep.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
