package lint

import (
	"path/filepath"
	"testing"
)

// treeSuppressions is the exact //lint:ok inventory of the repository,
// as (file base name, analyzer) pairs. The tree must be clean under
// the full suite, and every suppression is accounted for here: adding
// one means extending this list in the same change, so the escape
// hatches stay enumerable in review.
var treeSuppressions = map[[2]string]int{
	{"asdb.go", "lockguard"}: 1, // single-threaded registration by type contract
}

// TestTreeClean is the whole-repository contract: zero unsuppressed
// findings from the full suite of five analyzers, and exactly the
// documented suppression inventory, no more, no fewer.
func TestTreeClean(t *testing.T) {
	units, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("loaded no packages")
	}
	kept, silenced := Check(units, Analyzers())
	fset := units[0].Fset
	for _, d := range kept {
		t.Errorf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	got := make(map[[2]string]int)
	for _, s := range silenced {
		key := [2]string{filepath.Base(fset.Position(s.Pos).Filename), s.Analyzer}
		got[key]++
	}
	for key, n := range treeSuppressions {
		if got[key] != n {
			t.Errorf("suppression inventory: want %d silenced %s finding(s) in %s, got %d", n, key[1], key[0], got[key])
		}
	}
	for key, n := range got {
		if treeSuppressions[key] == 0 {
			t.Errorf("undocumented suppression: %d silenced %s finding(s) in %s — extend treeSuppressions with why", n, key[1], key[0])
		}
	}
}
