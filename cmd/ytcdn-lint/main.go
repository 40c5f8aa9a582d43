// Command ytcdn-lint runs the repo's determinism and concurrency lint
// suite (internal/lint) over package patterns:
//
//	go run ./cmd/ytcdn-lint ./...
//
// It loads and type-checks the matching module packages once and runs
// all five analyzers over them, one package at a time. Each
// unsuppressed finding prints to stderr as
// `file:line:col: [analyzer] message`. Standard vet is not part of it;
// run `go vet ./...` for that.
//
//	-json   print every finding, surviving and suppressed, as one JSON
//	        array on stdout instead
//	-list   name every analyzer with a one-line summary
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

const usage = "usage: ytcdn-lint [-json|-list] <package patterns>"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	jsonOut := false
	var patterns []string
	for _, arg := range args {
		switch {
		case arg == "-list":
			return printList()
		case arg == "-json":
			jsonOut = true
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

// printList names every analyzer in the suite with a one-line summary.
func printList() int {
	for _, a := range lint.Analyzers() {
		fmt.Printf("%-12s %s\n", a.Name, firstSentence(a.Doc))
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
