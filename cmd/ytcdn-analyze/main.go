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
// dataset, one census pass (analysis.Census) for the summary and the
// video/control classification, then one start-ordered pass tallying
// flows per session with only the currently open sessions' counts in
// memory. A TSV file is loaded into memory and a store directory is
// streamed; either source's ScanByStart gives the start order, equal
// starts in file or emission order. Lines need not be in start order:
// a TSV's scan buffers the records within its start-order lag, the
// whole trace at worst.
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

// analyzeTSV loads a WriterSink-format trace file into memory.
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
	return analyze(w, capture.MapSource(traces), gap)
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
	return analyze(w, r, gap)
}

// analyze prints one row per dataset of src.
func analyze(w io.Writer, src capture.TraceSource, gap time.Duration) error {
	fmt.Fprintf(w, "%-12s %9s %10s %9s %9s | %7s %7s | %9s %7s\n",
		"dataset", "flows", "GB", "servers", "clients", "video", "control", "sessions", "1-flow")
	for _, name := range src.Datasets() {
		// One census pass covers the Table-I summary and the
		// video/control classification together. Without a whois
		// registry, the census looks up no AS.
		c := analysis.NewCensus(nil, 0, int(src.Records(name)))
		it := src.Iter(name)
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			c.Add(r)
		}
		if err := it.Err(); err != nil {
			return err
		}
		sum, control := c.Summary(), c.FlowSizes().Control
		tallies, err := analysis.SessionTalliesIter(src.ScanByStart(name), []time.Duration{gap}, 10)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %9d %10.2f %9d %9d | %7d %7d | %9d %6.1f%%\n",
			name, sum.Flows, float64(sum.Bytes)/1e9, sum.Servers, sum.Clients,
			sum.Flows-control, control, tallies[0].Sessions(), tallies[0].Histogram()[0]*100)
	}
	return nil
}
