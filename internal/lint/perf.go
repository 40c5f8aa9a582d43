package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// The //perf: annotation language marks hot-path performance contracts
// on function declarations. Three contract verbs go in a function's doc
// comment:
//
//	//perf:hot      — on a hot path: the hotalloc analyzer flags
//	                  allocation constructs, but preallocation idioms
//	                  (make with explicit capacity, appends into them)
//	                  are tolerated.
//	//perf:noalloc  — must not heap-allocate: hotalloc flags every
//	                  allocation construct, and internal/perfgate holds
//	                  the function to the compiler's own escape
//	                  analysis (any "escapes to heap" inside the body
//	                  is a finding).
//	//perf:inline   — must stay inlinable: internal/perfgate fails when
//	                  the compiler reports "cannot inline".
//
// Compiler-level findings are suppressed in place with
//
//	//perf:ok <check> <reason>
//
// where <check> is "escape" or "inline"; like //lint:ok, the reason is
// mandatory. Analyzer-level (hotalloc) findings use the normal
// //lint:ok directive. hotalloc also polices the annotation
// language itself: unknown verbs, contract verbs with trailing text,
// contract verbs not attached to a function declaration, and reasonless
// //perf:ok directives are all findings.

// perfDirectiveRe matches any //perf: comment: group 1 is the verb,
// group 2 the (possibly empty) trailing text.
var perfDirectiveRe = regexp.MustCompile(`^//perf:([A-Za-z0-9_-]+)(?:[ \t]+(.*))?$`)

// Contract verbs and the suppression checks //perf:ok accepts.
const (
	perfHot     = "hot"
	perfNoAlloc = "noalloc"
	perfInline  = "inline"
	perfOK      = "ok"
)

// perfOKChecks are the compiler-level checks a //perf:ok directive can
// suppress (internal/perfgate consumes these; hotalloc validates them).
var perfOKChecks = map[string]bool{"escape": true, "inline": true}

// perfDirective is one parsed //perf: comment.
type perfDirective struct {
	verb string
	arg  string // trailing text after the verb
	pos  token.Pos
}

// parsePerfDirective parses a single comment, returning ok=false for
// comments that are not //perf: directives at all.
func parsePerfDirective(c *ast.Comment) (perfDirective, bool) {
	verb, arg, ok := ParsePerfText(c.Text)
	if !ok {
		return perfDirective{}, false
	}
	return perfDirective{verb: verb, arg: arg, pos: c.Pos()}, true
}

// ParsePerfText parses the raw text of one comment line as a //perf:
// directive; ok is false when the comment is not one. Exported for
// internal/perfgate, which scans the same annotation language straight
// from source.
func ParsePerfText(text string) (verb, arg string, ok bool) {
	m := perfDirectiveRe.FindStringSubmatch(text)
	if m == nil {
		return "", "", false
	}
	return m[1], strings.TrimSpace(m[2]), true
}

// perfContracts returns the contract verbs (hot/noalloc/inline) in a
// function's doc comment.
func perfContracts(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fd.Doc == nil {
		return out
	}
	for _, c := range fd.Doc.List {
		d, ok := parsePerfDirective(c)
		if !ok {
			continue
		}
		switch d.verb {
		case perfHot, perfNoAlloc, perfInline:
			out[d.verb] = true
		}
	}
	return out
}
