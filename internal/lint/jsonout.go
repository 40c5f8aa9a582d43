package lint

import "go/token"

// JSONFinding is the machine-readable form of one finding, as emitted
// by `ytcdn-lint -json`. Suppressed findings are included with their
// directive's reason so tooling can audit the suppression inventory;
// only unsuppressed findings make the run fail.
type JSONFinding struct {
	File           string `json:"file"`
	Line           int    `json:"line"`
	Col            int    `json:"col"`
	Analyzer       string `json:"analyzer"`
	Message        string `json:"message"`
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppress_reason,omitempty"`
}

// FindingsJSON renders surviving and suppressed diagnostics into the
// -json record form, surviving findings first.
func FindingsJSON(fset *token.FileSet, kept []Diagnostic, silenced []SuppressedDiagnostic) []JSONFinding {
	out := make([]JSONFinding, 0, len(kept)+len(silenced))
	for _, d := range kept {
		p := fset.Position(d.Pos)
		out = append(out, JSONFinding{
			File: p.Filename, Line: p.Line, Col: p.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	for _, s := range silenced {
		p := fset.Position(s.Pos)
		out = append(out, JSONFinding{
			File: p.Filename, Line: p.Line, Col: p.Column,
			Analyzer: s.Analyzer, Message: s.Message,
			Suppressed: true, SuppressReason: s.Reason,
		})
	}
	return out
}
