// Package linttest is the analysistest counterpart for the
// internal/lint framework: it loads a fixture module from a testdata
// directory with the real go toolchain, runs one analyzer over the
// requested packages, and diffs the diagnostics against `// want`
// expectations written next to the flagged code:
//
//	total += w // want "float accumulation"
//
// Each want string is a regular expression that must match the
// message of a diagnostic reported on that line, and every diagnostic
// must be covered by a want — so clean fixtures are simply packages
// with no want comments, and suppression fixtures carry //lint:ok
// directives and likewise expect silence.
package linttest

import (
	"fmt"
	"go/ast"
	"regexp"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/lint"
)

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// expectation is one // want comment, located by file and line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture module rooted at dir, analyzes the packages
// matching patterns with a, and reports any mismatch between the
// diagnostics and the // want expectations of all loaded files.
func Run(t *testing.T, dir string, a *lint.Analyzer, patterns ...string) {
	t.Helper()
	units, err := lint.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixture %s %v: %v", dir, patterns, err)
	}
	if len(units) == 0 {
		t.Fatalf("fixture %s %v matched no packages", dir, patterns)
	}
	var wants []*expectation
	for _, u := range units {
		for _, f := range u.Files {
			wants = append(wants, fileWants(u, f)...)
		}
	}
	fset := units[0].Fset
	diags, _ := lint.Check(units, []*lint.Analyzer{a})
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func fileWants(u *lint.Unit, f *ast.File) []*expectation {
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
				pos := u.Fset.Position(c.Pos())
				re, err := regexp.Compile(m[1])
				if err != nil {
					panic(fmt.Sprintf("%s: bad want regexp %q: %v", pos, m[1], err))
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}
