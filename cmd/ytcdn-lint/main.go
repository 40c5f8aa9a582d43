// Command ytcdn-lint runs the repo's determinism and concurrency lint
// suite (internal/lint) over package patterns:
//
//	go run ./cmd/ytcdn-lint ./...
//
// It loads and type-checks the matching module packages once and runs
// all seven analyzers over them: six per package, and the
// interprocedural detreach over a whole-module call graph, which is
// only complete for whole-module loads (`./...`). Each unsuppressed
// finding prints to stderr as `file:line:col: [analyzer] message`.
// Standard vet is not part of it; run `go vet ./...` for that.
//
//	-json   print every finding, surviving and suppressed, as one JSON
//	        array on stdout instead
//	-graph  dump the whole-module call graph to stdout instead of linting
//	-list   name every analyzer with its scope and a one-line summary
//
// Findings are suppressed line by line with `//lint:ok <analyzer>
// <reason>`; the reason is mandatory.
//
// Exit codes: 0 clean, 1 usage, driver or load error, 2 at least one
// unsuppressed finding.
package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"strings"

	"github.com/ytcdn-sim/ytcdn/internal/lint"
)

const (
	exitClean    = 0
	exitError    = 1
	exitFindings = 2
)

const usage = "usage: ytcdn-lint [-json|-graph|-list] <package patterns>"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	jsonOut, graphOut := false, false
	var patterns []string
	for _, arg := range args {
		switch {
		case arg == "-list":
			return printList()
		case arg == "-json":
			jsonOut = true
		case arg == "-graph":
			graphOut = true
		case strings.HasPrefix(arg, "-"):
			fmt.Fprintf(os.Stderr, "ytcdn-lint: unknown flag %s\n%s\n", arg, usage)
			return exitError
		default:
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) == 0 {
		fmt.Fprintln(os.Stderr, usage)
		return exitError
	}

	units, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ytcdn-lint: %v\n", err)
		return exitError
	}
	if graphOut {
		// The deterministic dump is a CI artifact that lets a reviewer
		// diff reachability across commits.
		var sb strings.Builder
		lint.BuildGraph(units).Dump(&sb)
		os.Stdout.WriteString(sb.String())
		return exitClean
	}

	kept, silenced := lint.Check(units, lint.Analyzers())
	fset := token.NewFileSet() // stays empty when no package matched
	if len(units) > 0 {
		fset = units[0].Fset
	}
	if jsonOut {
		data, err := json.MarshalIndent(lint.FindingsJSON(fset, kept, silenced), "", "\t")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ytcdn-lint: %v\n", err)
			return exitError
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		for _, d := range kept {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(kept) > 0 {
		return exitFindings
	}
	return exitClean
}

// printList names every analyzer in the suite with its scope and a
// one-line summary.
func printList() int {
	for _, a := range lint.Analyzers() {
		scope := "package"
		if a.RunModule != nil {
			scope = "module"
		}
		fmt.Printf("%-12s %-8s %s\n", a.Name, scope, firstSentence(a.Doc))
	}
	return exitClean
}

func firstSentence(doc string) string {
	doc = strings.Join(strings.Fields(doc), " ")
	if i := strings.Index(doc, "; "); i >= 0 {
		return doc[:i]
	}
	return doc
}
