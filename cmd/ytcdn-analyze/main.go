// Command ytcdn-analyze runs the passive side of the paper's analysis
// over captured traces: Tstat-style flow classification (1000-byte
// rule), video-session grouping with a configurable gap T, and
// per-dataset summaries.
//
// It deliberately works without the simulator world — everything it
// prints is derived from the trace alone, like the paper's offline
// analysis.
//
// The input is either a TSV trace file produced by ytcdn-sim, or a
// disk-backed tracestore directory produced with the -store option of
// ytcdn-experiments / the public API. Both run one analysis: per
// dataset, one pass for the summary and the video/control
// classification, then one start-ordered pass tallying flows per
// session with only the currently open sessions' counts in memory. A
// TSV file is loaded into memory and stable-sorted by flow start; a
// store directory is streamed, its start order coming from the store's
// merge scan.
//
// Usage:
//
//	ytcdn-analyze -t 1s traces.tsv
//	ytcdn-analyze -t 1s /path/to/store-dir
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/analysis"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/tracestore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ytcdn-analyze: ")

	gap := flag.Duration("t", time.Second, "session gap threshold T")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: ytcdn-analyze [-t gap] traces.tsv | store-dir")
	}
	if *gap < 0 {
		usageError("-t must not be negative, got %v", *gap)
	}
	path := flag.Arg(0)

	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	if info.IsDir() {
		if err := analyzeStore(os.Stdout, path, *gap); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := analyzeTSV(os.Stdout, path, *gap); err != nil {
		log.Fatal(err)
	}
}

// usageError rejects a flag value the way flag.Parse rejects an
// unknown flag: the message, the usage text, exit status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ytcdn-analyze: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// analyzeTSV loads a WriterSink-format trace file into memory and
// sorts each dataset by flow start, keeping file order among equal
// starts as the store's scan keeps emission order.
func analyzeTSV(w io.Writer, path string, gap time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	traces, err := capture.ReadTraces(f)
	if err != nil {
		return err
	}
	for _, recs := range traces {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	}
	src := capture.MapSource(traces)
	return analyze(w, src, src.Iter, gap)
}

// analyzeStore streams a tracestore directory, so neither the trace
// nor any session's flows are materialized.
func analyzeStore(w io.Writer, dir string, gap time.Duration) error {
	r, err := tracestore.OpenReader(dir)
	if err != nil {
		return err
	}
	for _, name := range r.Datasets() {
		if r.Truncated(name) {
			fmt.Fprintf(os.Stderr, "ytcdn-analyze: %s: shard truncated, analyzing the %d recovered records\n",
				name, r.Records(name))
		}
	}
	return analyze(w, r, r.ScanByStart, gap)
}

// analyze prints one row per dataset of src. byStart opens a dataset's
// records ordered by start time, the order the session tally needs.
func analyze(w io.Writer, src capture.TraceSource, byStart func(string) capture.Iterator, gap time.Duration) error {
	fmt.Fprintf(w, "%-12s %9s %10s %9s %9s | %7s %7s | %9s %7s\n",
		"dataset", "flows", "GB", "servers", "clients", "video", "control", "sessions", "1-flow")
	for _, name := range src.Datasets() {
		// One pass covers the Table-I summary and the video/control
		// classification together.
		video := 0
		sum, err := analysis.SummarizeIter(capture.FilterIter(src.Iter(name), func(r capture.FlowRecord) bool {
			if analysis.IsVideoFlow(r) {
				video++
			}
			return true
		}))
		if err != nil {
			return err
		}
		tallies, err := analysis.SessionTalliesIter(byStart(name), []time.Duration{gap}, 10)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %9d %10.2f %9d %9d | %7d %7d | %9d %6.1f%%\n",
			name, sum.Flows, float64(sum.Bytes)/1e9, sum.Servers, sum.Clients,
			video, sum.Flows-video, tallies[0].Sessions(), tallies[0].Histogram()[0]*100)
	}
	return nil
}
