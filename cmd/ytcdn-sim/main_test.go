package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectedRunKeepsOutput runs the built binary with options it must
// reject, each against an existing -o file: every run must exit
// non-zero and leave that file byte-identical with nothing beside it
// (the file used to be truncated before the options were validated).
// Bad -days, -scale and -policy values, a -report path in a missing
// directory and removed flags are usage errors, exit status 2, caught
// before any work (the -report path used to fail only after the trace
// had replaced -o). A good run then replaces the file.
func TestRejectedRunKeepsOutput(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ytcdn-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ytcdn-sim: %v\n%s", err, out)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "keep.tsv")
	const keep = "an earlier trace\n"
	if err := os.WriteFile(out, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	onlyOut := func(label string) {
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Errorf("%s: want only keep.tsv in the directory, got %d entries (err %v)", label, len(entries), err)
		}
	}

	for _, tc := range []struct {
		args  []string
		code  int
		usage string // the usage error expected with exit status 2
	}{
		{args: []string{"-sync-window", "1m"}, code: 2, usage: "flag provided but not defined: -sync-window"},
		{args: []string{"-shard-by", "bogus"}, code: 2, usage: "flag provided but not defined: -shard-by"},
		{args: []string{"-policy", "bogus"}, code: 2, usage: `unknown -policy "bogus"`},
		{args: []string{"-days", "-1"}, code: 2, usage: "-days must be at least 1"},
		{args: []string{"-days", "0"}, code: 2, usage: "-days must be at least 1"},
		{args: []string{"-scale", "0"}, code: 2, usage: "-scale must be positive"},
		{args: []string{"-scale", "-0.01"}, code: 2, usage: "-scale must be positive"},
		{args: []string{"-report", filepath.Join(dir, "missing", "r.json")}, code: 2, usage: "is not an existing directory"},
	} {
		cmd := exec.Command(bin, append([]string{"-scale", "0.002", "-days", "1", "-o", out}, tc.args...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != tc.code {
			t.Errorf("%v: want exit status %d, got %v\nstderr: %s", tc.args, tc.code, err, stderr.String())
		}
		if msg := stderr.String(); tc.usage != "" && (!strings.Contains(msg, tc.usage) || strings.Contains(msg, "simulated")) {
			t.Errorf("%v: want an early usage error %q, got stderr:\n%s", tc.args, tc.usage, msg)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != keep {
			t.Fatalf("%v: -o file changed to %q (err %v)", tc.args, got, err)
		}
		onlyOut(strings.Join(tc.args, " "))
	}

	if b, err := exec.Command(bin, "-scale", "0.002", "-days", "1", "-o", out).CombinedOutput(); err != nil {
		t.Fatalf("good run: %v\n%s", err, b)
	}
	if got, err := os.ReadFile(out); err != nil || string(got) == keep || !strings.Contains(string(got), "\t") {
		t.Errorf("good run did not replace -o with a trace: %q (err %v)", got, err)
	}
	onlyOut("good run")
}
