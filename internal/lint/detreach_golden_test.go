package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const frontierGoldenPath = "testdata/detreach.golden"

// TestDetReachFrontierGolden pins the deterministic plane's purity
// frontier — its entry points, everything reachable from them, and
// every call that leaves the module — byte for byte. Growing the
// reachable set or the external surface is not forbidden, but it must
// be visible: an intentional change is re-pinned with
//
//	DETREACH_REGEN=1 go test ./internal/lint -run TestDetReachFrontierGolden
//
// and reviewed as part of the diff. DETREACH_SNAPSHOT_OUT additionally
// writes the freshly computed frontier to the named file (without
// re-pinning), which CI uploads as an artifact so a red run shows the
// would-be golden.
func TestDetReachFrontierGolden(t *testing.T) {
	units, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	got := DetReachFrontier(units)

	if out := os.Getenv("DETREACH_SNAPSHOT_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote frontier snapshot to %s", out)
	}
	if os.Getenv("DETREACH_REGEN") != "" {
		if err := os.WriteFile(frontierGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-pinned %s", frontierGoldenPath)
		return
	}

	want, err := os.ReadFile(frontierGoldenPath)
	if err != nil {
		t.Fatalf("no pinned frontier (%v); pin it with DETREACH_REGEN=1 go test ./internal/lint -run TestDetReachFrontierGolden", err)
	}
	if got == string(want) {
		return
	}
	for _, line := range diffLines(string(want), got) {
		t.Error(line)
	}
	t.Errorf("detreach frontier drifted from %s; if the change is intentional, re-pin with DETREACH_REGEN=1 and review the diff", frontierGoldenPath)
}

// diffLines renders a set-style diff: lines only in want as "-", lines
// only in got as "+", in file order.
func diffLines(want, got string) []string {
	wantSet := make(map[string]bool)
	for _, l := range strings.Split(want, "\n") {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool)
	for _, l := range strings.Split(got, "\n") {
		gotSet[l] = true
	}
	var out []string
	for _, l := range strings.Split(want, "\n") {
		if !gotSet[l] {
			out = append(out, "- "+l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !wantSet[l] {
			out = append(out, "+ "+l)
		}
	}
	return out
}
