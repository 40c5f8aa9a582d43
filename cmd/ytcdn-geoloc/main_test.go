package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsNonPositiveServers runs the built binary with -servers
// below 1: it must exit 2 with a usage error before building the world
// or calibrating (it used to divide by zero after calibration).
func TestRejectsNonPositiveServers(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ytcdn-geoloc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ytcdn-geoloc: %v\n%s", err, out)
	}
	for _, n := range []string{"0", "-3"} {
		cmd := exec.Command(bin, "-servers", n)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-servers %s: want exit status 2, got %v\nstderr: %s", n, err, stderr.String())
		}
		if len(out) != 0 {
			t.Errorf("-servers %s: wrote %q to stdout", n, out)
		}
		if msg := stderr.String(); !strings.Contains(msg, "-servers must be at least 1") || strings.Contains(msg, "calibrating") {
			t.Errorf("-servers %s: want an early usage error, got stderr:\n%s", n, msg)
		}
	}
}
