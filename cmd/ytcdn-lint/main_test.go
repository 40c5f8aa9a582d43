package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	lintBinOnce sync.Once
	lintBinPath string
	lintBinErr  string
)

// buildLint builds the ytcdn-lint binary once per test run and hands
// every test the same path — the CLI tests exercise modes, not builds.
func buildLint(t *testing.T) string {
	t.Helper()
	lintBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ytcdn-lint-test")
		if err != nil {
			lintBinErr = err.Error()
			return
		}
		bin := filepath.Join(dir, "ytcdn-lint")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			lintBinErr = err.Error() + "\n" + string(out)
			return
		}
		lintBinPath = bin
	})
	if lintBinErr != "" {
		t.Fatalf("building ytcdn-lint: %s", lintBinErr)
	}
	return lintBinPath
}

// fixtureDir resolves a module fixture under internal/lint/testdata.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestJSONOutput pins the -json contract end to end: build the binary,
// run it over the lockguard fixture module, and parse the output. The
// array must carry unsuppressed findings (with file/line/analyzer/
// message) and the suppressed inventory (with the directive reason),
// and the process must exit 2 — findings — not 1 — tool failure.
func TestJSONOutput(t *testing.T) {
	bin := buildLint(t)
	fixture := fixtureDir(t, "lockguard")
	cmd := exec.Command(bin, "-json", "./flagged", "./suppressed")
	cmd.Dir = fixture
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit code 2 (findings), got err %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("want exit code 2 (findings), got %d\nstderr: %s", code, ee.Stderr)
	}

	var findings []struct {
		File           string `json:"file"`
		Line           int    `json:"line"`
		Col            int    `json:"col"`
		Analyzer       string `json:"analyzer"`
		Message        string `json:"message"`
		Suppressed     bool   `json:"suppressed"`
		SuppressReason string `json:"suppress_reason"`
	}
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, out)
	}

	var live, suppressed int
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding record: %+v", f)
		}
		if f.Suppressed {
			suppressed++
			if f.SuppressReason == "" {
				t.Errorf("suppressed finding without a reason: %+v", f)
			}
		} else {
			live++
			if f.Analyzer != "lockguard" {
				t.Errorf("unexpected analyzer %q in lockguard fixture: %+v", f.Analyzer, f)
			}
		}
	}
	if live == 0 {
		t.Error("no live findings from the flagged fixture package")
	}
	if suppressed == 0 {
		t.Error("no suppressed findings from the suppressed fixture package")
	}
}

// TestListOutput pins the -list contract: every analyzer in the suite
// appears with its scope, and the process exits 0.
func TestListOutput(t *testing.T) {
	bin := buildLint(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("ytcdn-lint -list: %v\n%s", err, out)
	}
	text := string(out)
	names := []string{
		"detmap", "rngpurity", "rngshare", "lockguard", "obsplane", "detreach",
	}
	for _, name := range names {
		if !strings.Contains(text, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, text)
		}
	}
	if lines := strings.Count(text, "\n"); lines != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", lines, len(names), text)
	}
	for _, want := range []string{"module", "package"} {
		if !strings.Contains(text, want) {
			t.Errorf("-list output missing %q:\n%s", want, text)
		}
	}
}

// TestGraphDump pins the -graph mode: a deterministic whole-module
// call-graph dump on stdout, exit 0, no lint findings.
func TestGraphDump(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "-graph", "./...")
	cmd.Dir = fixtureDir(t, "callgraph")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ytcdn-lint -graph: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.HasPrefix(text, "ytcdn callgraph v1:") {
		t.Errorf("-graph output missing header:\n%.200s", text)
	}
	if !strings.Contains(text, "func example.com/callgraphfix.Lifecycle") {
		t.Errorf("-graph output missing fixture node:\n%s", text)
	}
	if !strings.Contains(text, "go example.com/callgraphfix.spinning") {
		t.Errorf("-graph output missing go-kind edge:\n%s", text)
	}
}

// TestModuleAnalyzerJSON runs -json over the detreach fixture: the
// module analyzer's findings must appear in the same array as the
// per-package suite's, with the suppressed inventory, and the process
// must exit 2.
func TestModuleAnalyzerJSON(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = fixtureDir(t, "detreach")
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit code 2 (findings), got err %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("want exit code 2 (findings), got %d\nstderr: %s", code, ee.Stderr)
	}
	var findings []struct {
		Analyzer       string `json:"analyzer"`
		Message        string `json:"message"`
		Suppressed     bool   `json:"suppressed"`
		SuppressReason string `json:"suppress_reason"`
	}
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, out)
	}
	var live, suppressed, perPackage int
	for _, f := range findings {
		if f.Analyzer != "detreach" {
			perPackage++
			continue
		}
		if f.Suppressed {
			suppressed++
			if f.SuppressReason == "" {
				t.Errorf("suppressed detreach finding without a reason: %+v", f)
			}
		} else {
			live++
		}
	}
	if live == 0 {
		t.Error("no live detreach findings from the fixture")
	}
	if suppressed == 0 {
		t.Error("no suppressed detreach findings from the fixture")
	}
	if perPackage == 0 {
		t.Error("no per-package findings in the same array as detreach's")
	}
}

// TestModuleAnalyzerStandalone runs the plain text mode over fixture
// modules: every finding, per-package or module, prints as
// `file:line:col: [analyzer] message` on stderr and drives the exit
// code to 2.
func TestModuleAnalyzerStandalone(t *testing.T) {
	bin := buildLint(t)
	for _, tc := range []struct {
		fixture, pattern, want string
	}{
		{"detreach", "./...", "[detreach] wall clock on the deterministic plane: time.Now"},
		{"lockguard", "./flagged", "[lockguard] c.mu.Lock() is not followed directly by defer c.mu.Unlock()"},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			cmd := exec.Command(bin, tc.pattern)
			cmd.Dir = fixtureDir(t, tc.fixture)
			out, err := cmd.CombinedOutput()
			if code := exitCode(t, err); code != 2 {
				t.Fatalf("want exit code 2 (findings), got %d\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestUsageErrors pins the usage contract: any flag but -json, -graph
// and -list is an unknown flag and exits 1 before anything is loaded.
func TestUsageErrors(t *testing.T) {
	bin := buildLint(t)
	for _, flag := range []string{"-detmap=false", "-custom-only"} {
		cmd := exec.Command(bin, flag, "./...")
		cmd.Dir = fixtureDir(t, "detreach")
		out, err := cmd.CombinedOutput()
		if code := exitCode(t, err); code != 1 {
			t.Errorf("%s: want exit code 1 (usage), got %d\n%s", flag, code, out)
		}
		if !strings.Contains(string(out), "unknown flag") {
			t.Errorf("%s: output missing \"unknown flag\":\n%s", flag, out)
		}
	}
}

// exitCode returns the exit code behind a finished command's error.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("command did not run: %v", err)
	}
	return ee.ExitCode()
}
