package ytcdn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/obs/report"
)

// TestCLIParityWithWallClockPlane runs the commands with every
// wall-clock-plane feature on (-report, -progress, -metrics-addr) and
// holds their output to runs that have none: the ytcdn-sim trace to an
// in-process Run at the same options, and ytcdn-experiments stdout, in
// memory and with -store, to the suite golden.
//
// The commands are the only code that installs the wall-clock plane
// (internal/obscli, obs/profile, obs/obshttp) into a study, and the
// lint exempts that plane from rngpurity. So a clock that the plane
// hands to deterministic code through an interface, such as a
// profile type installed from obscli into a policy, passes the lint
// and every in-process test; it shows only here. This test replaces
// the coverage of interface dispatch that the detreach analyzer's
// whole-module call graph used to give.
func TestCLIParityWithWallClockPlane(t *testing.T) {
	dir := t.TempDir()
	sim := buildCommand(t, dir, "ytcdn-sim")
	experiments := buildCommand(t, dir, "ytcdn-experiments")
	// obsFlags turns the whole wall-clock plane on, with the -report
	// artifact written to dir/name.json.
	obsFlags := func(name string) []string {
		return []string{
			"-report", filepath.Join(dir, name+".json"),
			"-progress", "10ms",
			"-metrics-addr", "127.0.0.1:0",
		}
	}

	t.Run("ytcdn-sim", func(t *testing.T) {
		trace := filepath.Join(dir, "trace.tsv")
		runCommand(t, sim, append([]string{"-scale", "0.002", "-days", "1", "-o", trace}, obsFlags("sim")...))
		checkReport(t, filepath.Join(dir, "sim.json"))
		got, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}

		pol, err := PolicyByName("paper") // the ytcdn-sim default
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		ws := capture.NewWriterSink(&want)
		if _, err := Run(Options{Scale: 0.002, Span: 24 * time.Hour, Policy: pol, ExtraSink: ws}); err != nil {
			t.Fatal(err)
		}
		if err := ws.Flush(); err != nil {
			t.Fatal(err)
		}
		if g, w := sha256Hex(got), sha256Hex(want.Bytes()); g != w {
			t.Errorf("ytcdn-sim trace with the wall-clock plane on diverged from the in-process run:\n got  %s\n want %s", g, w)
		}
	})

	golden, err := os.ReadFile(suiteGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"ytcdn-experiments", nil},
		{"ytcdn-experiments-store", []string{"-store", filepath.Join(dir, "store")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-scale", "0.05"}, tc.extra...)
			got := runCommand(t, experiments, append(args, obsFlags(tc.name)...))
			checkReport(t, filepath.Join(dir, tc.name+".json"))
			if !bytes.Equal(got, golden) {
				t.Errorf("stdout with the wall-clock plane on diverged from %s\n%s", suiteGolden, firstDiff(string(got), string(golden)))
			}
		})
	}
}

// buildCommand builds ./cmd/name into dir and returns the binary.
func buildCommand(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// runCommand runs bin with args and returns its stdout.
func runCommand(t *testing.T, bin string, args []string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.Bytes())
	}
	return out
}

// checkReport checks that the -report artifact was written, which
// shows that the command brought the wall-clock plane up.
func checkReport(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no -report artifact: %v", err)
	}
	if err := report.ValidateJSON(data); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
