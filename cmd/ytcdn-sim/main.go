// Command ytcdn-sim runs the paper's five-network study and writes the
// captured flow traces as TSV (dataset, client, server, start_us,
// end_us, bytes, VideoID, resolution), one line per flow — the same
// records a Tstat probe at each vantage point would log.
//
// The trace goes to the -o file; stdout carries nothing. The file is
// replaced only when the run succeeds: a rejected or failed run leaves
// an existing -o as it was. All progress and summary output goes to
// stderr, so the command composes cleanly in pipelines. The
// observability flags (-metrics-addr, -report, -progress) expose the
// run while it executes and as an artifact.
//
// Usage:
//
//	ytcdn-sim -scale 0.1 -days 7 -o traces.tsv
//	ytcdn-sim -scale 0.3 -metrics-addr :9090 -report run.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	ytcdn "github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/obscli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ytcdn-sim: ")

	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper scale, ~2.4M flows)")
	days := flag.Int("days", 7, "capture window in days")
	seed := flag.Int64("seed", 20100904, "random seed")
	out := flag.String("o", "traces.tsv", "output trace file")
	policy := flag.String("policy", "paper",
		"selection policy ("+strings.Join(ytcdn.PolicyNames(), ", ")+")")
	obsFlags := obscli.Register()
	flag.Parse()
	if *days < 1 {
		usageError("-days must be at least 1, got %d", *days)
	}
	if !(*scale > 0) {
		usageError("-scale must be positive, got %g", *scale)
	}

	pol, err := ytcdn.PolicyByName(*policy)
	if err != nil {
		usageError("unknown -policy %q (built-ins: %s)", *policy, strings.Join(ytcdn.PolicyNames(), ", "))
	}

	session, err := obsFlags.Start("ytcdn-sim")
	if err != nil {
		log.Fatal(err)
	}

	// The trace is written to a temporary file beside -o and renamed
	// over it only after the run succeeds. log.Fatal skips defers, so
	// every failure before the rename goes through fail, which removes
	// the temporary file first.
	f, err := os.CreateTemp(filepath.Dir(*out), "."+filepath.Base(*out)+".tmp*")
	if err != nil {
		log.Fatal(err)
	}
	fail := func(err error) {
		f.Close()
		os.Remove(f.Name())
		log.Fatal(err)
	}

	ws := capture.NewWriterSink(f)
	start := time.Now()
	simDone := session.Phase("simulation")
	study, err := ytcdn.Run(ytcdn.Options{
		Scale:     *scale,
		Span:      time.Duration(*days) * 24 * time.Hour,
		Seed:      *seed,
		Policy:    pol,
		ExtraSink: ws,
		Metrics:   session.Registry(),
	})
	simDone()
	if err != nil {
		fail(err)
	}
	if err := ws.Flush(); err != nil {
		fail(err)
	}
	if err := f.Chmod(traceMode(*out)); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	if err := os.Rename(f.Name(), *out); err != nil {
		fail(err)
	}

	// Summary lines are progress/log output: stderr, so stdout stays
	// machine-parseable (the trace itself goes to -o).
	fmt.Fprintf(os.Stderr, "simulated %d days at scale %.3f under policy %s in %v\n",
		*days, *scale, *policy, time.Since(start).Round(time.Millisecond))
	for _, name := range ytcdn.DatasetNames() {
		// Stream the totals: Trace would copy the dataset only to sum it.
		it := study.TraceIter(name)
		flows, bytes := 0, int64(0)
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			flows++
			bytes += r.Bytes
		}
		if err := it.Err(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  %-12s %8d flows  %8.2f GB\n", name, flows, float64(bytes)/1e9)
	}
	spills, hotspots, misses := study.Selector.Counters()
	fmt.Fprintf(os.Stderr, "mechanisms: %d DNS spills, %d hotspot redirects, %d content misses\n", spills, hotspots, misses)
	m := study.Selection
	fmt.Fprintf(os.Stderr, "selection: %.1f%% of %d chains served from preferred DC, mean RTT %.2f ms, %.3f redirects/chain\n",
		m.PreferredFrac()*100, m.Chains, m.MeanServedRTTms(), m.MeanRedirects())
	fmt.Fprintf(os.Stderr, "trace written to %s\n", *out)

	if err := session.Close(map[string]string{
		"scale":  fmt.Sprintf("%g", *scale),
		"days":   strconv.Itoa(*days),
		"seed":   strconv.FormatInt(*seed, 10),
		"policy": *policy,
	}); err != nil {
		log.Fatal(err)
	}
}

// traceMode is the permission the finished trace gets: an existing
// -o keeps its own, a new one gets 0644 (os.CreateTemp makes 0600).
func traceMode(out string) os.FileMode {
	if st, err := os.Stat(out); err == nil {
		return st.Mode().Perm()
	}
	return 0o644
}

// usageError rejects a flag value the way flag.Parse rejects an
// unknown flag: the message, the usage text, exit status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ytcdn-sim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
