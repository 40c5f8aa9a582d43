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
// ytcdn-experiments / the public API. A TSV file is loaded into
// memory; a store directory is analyzed fully streaming — summaries
// and classification in one bounded-memory pass per dataset, and the
// flows-per-session tally through the start-ordered scan with only the
// currently open sessions' counts in memory.
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

// row is the per-dataset output line shared by both input modes.
type row struct {
	sum      analysis.TraceSummary
	video    int
	control  int
	sessions int
	single   float64
}

func printHeader(w io.Writer) {
	fmt.Fprintf(w, "%-12s %9s %10s %9s %9s | %7s %7s | %9s %7s\n",
		"dataset", "flows", "GB", "servers", "clients", "video", "control", "sessions", "1-flow")
}

func printRow(w io.Writer, name string, r row) {
	fmt.Fprintf(w, "%-12s %9d %10.2f %9d %9d | %7d %7d | %9d %6.1f%%\n",
		name, r.sum.Flows, float64(r.sum.Bytes)/1e9, r.sum.Servers, r.sum.Clients,
		r.video, r.control, r.sessions, r.single*100)
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
	src := capture.MapSource(traces)
	printHeader(w)
	for _, name := range src.Datasets() {
		recs := traces[name]
		video, control := analysis.SplitFlows(recs)
		sessions := analysis.Sessionize(recs, gap)
		hist := analysis.FlowsPerSessionHistogram(sessions, 10)
		single := 0.0
		if len(hist) > 0 {
			single = hist[0]
		}
		printRow(w, name, row{
			sum:      analysis.Summarize(recs),
			video:    len(video),
			control:  len(control),
			sessions: len(sessions),
			single:   single,
		})
	}
	return nil
}

// analyzeStore streams a tracestore directory: one summary pass per
// dataset plus one start-ordered pass tallying flows per session, so
// neither the trace nor any session's flows are materialized.
func analyzeStore(w io.Writer, dir string, gap time.Duration) error {
	r, err := tracestore.OpenReader(dir)
	if err != nil {
		return err
	}
	printHeader(w)
	for _, name := range r.Datasets() {
		if r.Truncated(name) {
			fmt.Fprintf(os.Stderr, "ytcdn-analyze: %s: shard truncated, analyzing the %d recovered records\n",
				name, r.Records(name))
		}
		// One pass covers the Table-I summary and the video/control
		// classification together.
		var out row
		servers := make(map[uint32]struct{})
		clients := make(map[uint32]struct{})
		it := r.Iter(name)
		for {
			rec, ok := it.Next()
			if !ok {
				break
			}
			out.sum.Flows++
			out.sum.Bytes += rec.Bytes
			servers[uint32(rec.Server)] = struct{}{}
			clients[uint32(rec.Client)] = struct{}{}
			if analysis.IsVideoFlow(rec) {
				out.video++
			} else {
				out.control++
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
		out.sum.Servers = len(servers)
		out.sum.Clients = len(clients)
		tallies, err := analysis.SessionTalliesIter(r.ScanByStart(name), []time.Duration{gap}, 10)
		if err != nil {
			return err
		}
		out.sessions = tallies[0].Sessions()
		out.single = tallies[0].Histogram()[0]
		printRow(w, name, out)
	}
	return nil
}
