// Package lint is the repo's static layer: a small, dependency-free
// analysis framework (in the spirit of golang.org/x/tools/go/analysis,
// which this module deliberately does not depend on) plus the six
// analyzers that encode the invariants every parity suite in this
// repository leans on. Five work on one package at a time:
// map-iteration determinism, RNG purity, RNG stream ownership, mutex
// discipline (guarded fields, deferred unlocks, typed atomics only)
// and the observability plane split. One, detreach, works on the
// whole module through its call graph (see module.go): transitive
// determinism purity. Allocation contracts are not lint: they are
// testing.AllocsPerRun tests in each package's alloc_test.go.
//
// There is one driver. Load parses and type-checks module packages
// from source, and Check runs analyzers over them; cmd/ytcdn-lint, the
// fixture tests (see the linttest package) and TestTreeClean all go
// through these two calls.
//
// Findings are suppressed line by line with
//
//	//lint:ok <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory: a suppression without one is itself reported, so every
// escape hatch in the tree documents why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"github.com/ytcdn-sim/ytcdn/internal/lint/callgraph"
)

// Analyzer is one named check. Exactly one of Run and RunModule is
// set: Run sees one type-checked package at a time, RunModule the
// whole loaded module plus its call graph.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ok
	// suppression directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunModule inspects the whole module and reports findings through
	// the pass.
	RunModule func(*ModulePass)
}

// Pass carries one package's parsed and type-checked source to an
// analyzer and collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax trees, comments included.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned in the file set of the pass
// that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in deterministic order: the five
// per-package analyzers, then the module analyzer detreach.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetMap, RNGPurity, RNGShare, LockGuard, ObsPlane, DetReach}
}

// suppressionRe matches a //lint:ok directive. Group 1 is the analyzer
// name, group 2 the (possibly empty) reason.
var suppressionRe = regexp.MustCompile(`//lint:ok\s+([A-Za-z0-9_-]+)\s*(.*)`)

// suppression is one parsed //lint:ok directive.
type suppression struct {
	analyzer string
	reason   string
	line     int
	pos      token.Pos
}

// collectSuppressions parses every //lint:ok directive in the files.
func collectSuppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var out []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressionRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				out = append(out, suppression{
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
					line:     fset.Position(c.Pos()).Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return out
}

// SuppressedDiagnostic pairs a finding with the reasoned //lint:ok
// directive that silenced it, for machine-readable output.
type SuppressedDiagnostic struct {
	Diagnostic
	Reason string
}

// Check runs the analyzers over units, which must share one FileSet
// as the units of one Load call do, and returns the surviving
// diagnostics plus the findings that reasoned //lint:ok directives
// silenced, both sorted by position. Per-package analyzers run unit by
// unit; the call graph is built once, and only if a module analyzer
// runs. Suppressions are applied once over all files: a finding whose
// line (or the line above it) carries a //lint:ok directive naming the
// same analyzer is silenced, and a directive naming a running analyzer
// but missing its reason is reported as a finding of that analyzer.
func Check(units []*Unit, analyzers []*Analyzer) (kept []Diagnostic, silenced []SuppressedDiagnostic) {
	if len(units) == 0 {
		return nil, nil
	}
	fset := units[0].Fset
	var files []*ast.File
	var diags []Diagnostic
	for _, u := range units {
		files = append(files, u.Files...)
		for _, a := range analyzers {
			if a.Run != nil {
				pass := &Pass{Analyzer: a, Fset: fset, Files: u.Files, Pkg: u.Pkg, Info: u.Info}
				a.Run(pass)
				diags = append(diags, pass.diags...)
			}
		}
	}
	var graph *callgraph.Graph
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = BuildGraph(units)
		}
		pass := &ModulePass{Analyzer: a, Fset: fset, Units: units, Graph: graph}
		a.RunModule(pass)
		diags = append(diags, pass.diags...)
	}

	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	return finishRun(fset, files, running, diags)
}

// finishRun applies the suppression protocol: report reasonless
// directives naming a running analyzer, silence findings covered by
// reasoned directives, and sort both lists by position.
func finishRun(fset *token.FileSet, files []*ast.File, running map[string]bool, diags []Diagnostic) ([]Diagnostic, []SuppressedDiagnostic) {
	sups := collectSuppressions(fset, files)
	for _, s := range sups {
		if running[s.analyzer] && s.reason == "" {
			diags = append(diags, Diagnostic{
				Pos:      s.pos,
				Analyzer: s.analyzer,
				Message:  fmt.Sprintf("//lint:ok %s needs a reason: state why the flagged code is safe", s.analyzer),
			})
		}
	}

	kept := diags[:0]
	var silenced []SuppressedDiagnostic
	for _, d := range diags {
		if reason, ok := suppressedBy(fset, sups, d); ok {
			silenced = append(silenced, SuppressedDiagnostic{Diagnostic: d, Reason: reason})
		} else {
			kept = append(kept, d)
		}
	}
	byPos := func(a, b Diagnostic) bool {
		pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Line != pb.Line {
			return pa.Line < pb.Line
		}
		return a.Message < b.Message
	}
	sort.Slice(kept, func(i, j int) bool { return byPos(kept[i], kept[j]) })
	sort.Slice(silenced, func(i, j int) bool { return byPos(silenced[i].Diagnostic, silenced[j].Diagnostic) })
	return kept, silenced
}

// suppressedBy returns the reason of the reasoned directive covering d
// — on its own line or the line directly above — if any.
func suppressedBy(fset *token.FileSet, sups []suppression, d Diagnostic) (string, bool) {
	pos := fset.Position(d.Pos)
	for _, s := range sups {
		if s.analyzer != d.Analyzer || s.reason == "" {
			continue
		}
		if fset.Position(s.pos).Filename != pos.Filename {
			continue
		}
		if s.line == pos.Line || s.line == pos.Line-1 {
			return s.reason, true
		}
	}
	return "", false
}
