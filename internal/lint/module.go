package lint

import (
	"fmt"
	"go/token"

	"github.com/ytcdn-sim/ytcdn/internal/lint/callgraph"
)

// ModulePass carries the loaded module and its call graph to a module
// analyzer (one with RunModule set) and collects its diagnostics. Where
// a Pass sees one package at a time, a ModulePass sees every unit plus
// the call graph over them, the shape an interprocedural check such as
// detreach needs. Run it over whole-module loads (`./...`): a partial
// load truncates the class hierarchy and silently weakens CHA.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit
	Graph    *callgraph.Graph

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// BuildGraph constructs the whole-module call graph over units (which
// must share one FileSet, as units from a single Load call do).
func BuildGraph(units []*Unit) *callgraph.Graph {
	if len(units) == 0 {
		return callgraph.Build(token.NewFileSet(), nil)
	}
	pkgs := make([]callgraph.Pkg, 0, len(units))
	for _, u := range units {
		pkgs = append(pkgs, callgraph.Pkg{Files: u.Files, Pkg: u.Pkg, Info: u.Info})
	}
	return callgraph.Build(units[0].Fset, pkgs)
}
