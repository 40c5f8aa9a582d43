package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadDaysAndScale runs the built binary with bad or removed
// flags: each must exit 2 with a usage error before any work, and
// before the /metrics listener comes up. -days below 1 and a
// non-positive -scale used to map onto library defaults (-days 0 ran a
// full week, -scale 0 ran at paper scale) or run an empty study; the
// flag conflicts and an unknown -policy used to exit 1 only after the
// listener had started, and a -report path in a missing directory only
// after the whole suite had run.
func TestRejectsBadDaysAndScale(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ytcdn-experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ytcdn-experiments: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-days", "0"}, "-days must be at least 1"},
		{[]string{"-days", "-1"}, "-days must be at least 1"},
		{[]string{"-scale", "0"}, "-scale must be positive"},
		{[]string{"-scale", "-0.01"}, "-scale must be positive"},
		{[]string{"-compare-policies", "-scale", "0"}, "-scale must be positive"},
		{[]string{"-segment", "1024"}, "-segment requires -store"},
		{[]string{"-compare-policies", "-policy", "proximity"}, "drop -policy"},
		{[]string{"-policy", "bogus"}, `unknown -policy "bogus"`},
		{[]string{"-sim-shards", "2"}, "flag provided but not defined: -sim-shards"},
		{[]string{"-report", filepath.Join(t.TempDir(), "missing", "r.json")}, "is not an existing directory"},
	} {
		cmd := exec.Command(bin, append([]string{"-metrics-addr", "127.0.0.1:0"}, tc.args...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("%v: want exit status 2, got %v\nstderr: %s", tc.args, err, stderr.String())
		}
		if len(out) != 0 {
			t.Errorf("%v: wrote %q to stdout", tc.args, out)
		}
		msg := stderr.String()
		if !strings.Contains(msg, tc.msg) || strings.Contains(msg, "# simulation") || strings.Contains(msg, "serving /metrics") {
			t.Errorf("%v: want an early usage error %q, got stderr:\n%s", tc.args, tc.msg, msg)
		}
	}
}
