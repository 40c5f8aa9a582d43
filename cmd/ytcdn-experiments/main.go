// Command ytcdn-experiments regenerates every table and figure of the
// paper: it runs the five-network study, the active measurement
// campaigns (ping sweeps, CBG geolocation, the PlanetLab first-access
// experiment), and the full analysis pipeline, printing paper-style
// output for Tables I-III and Figures 2-18.
//
// stdout carries only the machine-parseable results (the tables and
// figures); progress and timing lines go to stderr. The observability
// flags (-metrics-addr, -report, -progress) expose the pipeline while
// it runs and as an end-of-run artifact.
//
// Usage:
//
//	ytcdn-experiments -scale 1.0                    # full paper scale (~1 min)
//	ytcdn-experiments -scale 0.05                   # quick pass (~15 s)
//	ytcdn-experiments -scale 1.0 -store /tmp/yt     # flat RSS: traces spill to disk
//	ytcdn-experiments -policy client-race           # the suite under another policy
//	ytcdn-experiments -compare-policies             # one study per built-in policy
//	ytcdn-experiments -metrics-addr :9090 -report run.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	ytcdn "github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/obscli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ytcdn-experiments: ")

	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper scale)")
	days := flag.Int("days", 7, "capture window in days")
	seed := flag.Int64("seed", 20100904, "random seed")
	parallelism := flag.Int("parallelism", runtime.NumCPU(),
		"analysis worker pool size (1 = sequential; output is identical either way)")
	storeDir := flag.String("store", "",
		"spill traces to a disk-backed columnar store in this directory (empty = in memory); output is identical either way")
	segment := flag.Int("segment", 0,
		"records per store segment (0 = tracestore default; only with -store)")
	policy := flag.String("policy", "paper",
		"selection policy for the run ("+strings.Join(ytcdn.PolicyNames(), ", ")+")")
	comparePolicies := flag.Bool("compare-policies", false,
		"run one study per built-in policy and print the ground-truth comparison table instead of the paper suite")
	obsFlags := obscli.Register()
	flag.Parse()
	if *days < 1 {
		usageError("-days must be at least 1, got %d", *days)
	}
	if !(*scale > 0) {
		usageError("-scale must be positive, got %g", *scale)
	}
	if *segment != 0 && *storeDir == "" {
		usageError("-segment requires -store")
	}
	if *comparePolicies && *policy != "paper" {
		usageError("-compare-policies runs every built-in policy; drop -policy")
	}
	pol, err := ytcdn.PolicyByName(*policy)
	if err != nil {
		usageError("unknown -policy %q (built-ins: %s)", *policy, strings.Join(ytcdn.PolicyNames(), ", "))
	}
	if err := obsFlags.Validate(); err != nil {
		usageError("%v", err)
	}

	session, err := obsFlags.Start("ytcdn-experiments")
	if err != nil {
		log.Fatal(err)
	}

	opts := ytcdn.Options{
		Scale:       *scale,
		Span:        time.Duration(*days) * 24 * time.Hour,
		Seed:        *seed,
		Parallelism: *parallelism,
		Metrics:     session.Registry(),
		Profiler:    session.Profiler(),
	}
	if *storeDir != "" {
		opts.Store = &ytcdn.StoreOptions{Dir: *storeDir, SegmentRecords: *segment}
	}
	reportConfig := map[string]string{
		"scale":       fmt.Sprintf("%g", *scale),
		"days":        strconv.Itoa(*days),
		"seed":        strconv.FormatInt(*seed, 10),
		"policy":      *policy,
		"parallelism": strconv.Itoa(*parallelism),
	}

	start := time.Now()
	if *comparePolicies {
		cmp, err := ytcdn.ComparePolicies(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# policy comparison: scale %.3f, %d days, seed %d, %v\n",
			*scale, *days, *seed, time.Since(start).Round(time.Millisecond))
		fmt.Println(cmp.Render())
		if err := session.Close(reportConfig); err != nil {
			log.Fatal(err)
		}
		return
	}
	opts.Policy = pol
	simDone := session.Phase("simulation")
	study, err := ytcdn.Run(opts)
	simDone()
	if err != nil {
		log.Fatal(err)
	}
	where := "in memory"
	if dir := study.StoreDir(); dir != "" {
		where = "on disk at " + dir
	}
	fmt.Fprintf(os.Stderr, "# simulation: policy %s, scale %.3f, %d days, %d flows %s, %v (analysis parallelism %d)\n",
		*policy, *scale, *days, study.TotalFlows(), where, time.Since(start).Round(time.Millisecond), *parallelism)

	if err := study.Experiments().RunAll(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "# total %v\n", time.Since(start).Round(time.Millisecond))

	if err := session.Close(reportConfig); err != nil {
		log.Fatal(err)
	}
}

// usageError rejects a flag value the way flag.Parse rejects an
// unknown flag: the message, the usage text, exit status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ytcdn-experiments: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
