// Package ytcdn reproduces the system studied in "Dissecting Video
// Server Selection Strategies in the YouTube CDN" (Torres et al.,
// IEEE ICDCS 2011): a simulator of the 2010 YouTube content
// distribution network — preferred-data-center DNS mapping, adaptive
// DNS load balancing, hot-spot and content-miss application-layer
// redirection — together with the paper's complete measurement and
// analysis pipeline (Tstat-style flow capture, video-session grouping,
// CBG delay-based geolocation, per-AS and per-data-center accounting).
//
// The typical entry point is Run, which simulates the paper's five
// monitored networks for a configurable window and returns the
// captured traces plus handles to the world for active measurements:
//
//	study, err := ytcdn.Run(ytcdn.Options{Scale: 0.05, Span: 2 * 24 * time.Hour})
//	...
//	trace := study.Trace(ytcdn.DatasetEU1ADSL)
//
// Analysis of the traces lives in internal/analysis and is surfaced
// through the experiments harness (cmd/ytcdn-experiments), which
// regenerates every table and figure of the paper.
package ytcdn

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/cdn"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/experiments"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/par"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
	"github.com/ytcdn-sim/ytcdn/internal/tracestore"
	"github.com/ytcdn-sim/ytcdn/internal/workload"
)

// Dataset names re-exported for callers of the public API.
const (
	DatasetUSCampus  = topology.DatasetUSCampus
	DatasetEU1Campus = topology.DatasetEU1Campus
	DatasetEU1ADSL   = topology.DatasetEU1ADSL
	DatasetEU1FTTH   = topology.DatasetEU1FTTH
	DatasetEU2       = topology.DatasetEU2
)

// DatasetNames returns the five dataset names in the paper's order.
func DatasetNames() []string { return topology.DatasetNames() }

// Options configures a study run. The zero value runs the full paper
// setting (five networks, one week, full-scale populations); set Scale
// below 1 to shrink the workload proportionally.
type Options struct {
	// Seed makes the whole study reproducible.
	Seed int64
	// Scale multiplies session volumes (1.0 = paper scale, ~2.4M
	// flows; 0.05 runs in well under a second). Zero means 1.0; a
	// negative value is an error.
	Scale float64
	// Span is the capture window (default: one week, like the paper).
	// A negative value is an error.
	Span time.Duration
	// Policy is the server-selection policy the engine delegates to.
	// Nil means the paper's reverse-engineered behaviour
	// (core.DefaultPaperPolicy); see BuiltinPolicies for the other
	// built-ins. The paper's ablations are a PaperPolicy with one
	// mechanism switched off — for §VII-A, DNS load balancing:
	//
	//	pol := core.DefaultPaperPolicy()
	//	pol.DNSLoadBalancing = false
	//	opts.Policy = pol
	Policy core.SelectionPolicy
	// PolicySwitch, when non-nil, swaps the selection policy mid-run —
	// the scenario the paper stumbled into when Google changed the
	// assignment policy between the 2010 captures and the February
	// 2011 follow-up. Load state, placement and counters carry across
	// the switch; only decisions after At change.
	PolicySwitch *PolicySwitch
	// Store, when non-nil, spills the captured traces to a disk-backed
	// columnar store instead of holding them in memory: capture runs
	// through a tracestore.Writer (one shard per dataset, fixed-size
	// segments), and the analysis side streams the segments back with
	// bounded buffering. Use it for paper-scale (Scale near 1.0 and
	// beyond) studies; the in-memory default remains right for tests
	// and small runs. Tables and figures are bit-identical either way.
	Store *StoreOptions
	// ExtraSink, when non-nil, additionally receives every flow record
	// as it is emitted (e.g. a capture.WriterSink streaming to disk).
	// One study records from a single goroutine; a sink shared by
	// concurrent studies (RunMany) must be safe for concurrent use.
	ExtraSink capture.Sink
	// Parallelism bounds the worker pool of the analysis harness
	// returned by Study.Experiments (per-server CBG geolocation, the
	// per-VP ping campaigns, the per-dataset pipelines). 1 means
	// strictly sequential; 0 or negative means one worker per core.
	// The computed tables and figures are bit-identical either way.
	Parallelism int
	// Metrics, when non-nil, instruments the run: the deterministic
	// core publishes sim-time counters, gauges and histograms
	// ("sim.*" / "store.*" names) into the registry as it executes,
	// and a live scrape (obshttp) may read them from another goroutine
	// mid-run. Every instrument is keyed on simulated time and event
	// counts only — recording draws no randomness, reads no wall clock
	// and schedules nothing — so a run with Metrics set is
	// bit-identical to one without (the parity tests pin this).
	Metrics *obs.Registry
	// Profiler, when non-nil, wall-clock-times the analysis harness's
	// pipeline phases (localization, probing, per-dataset analysis);
	// see experiments.Profiler. obs/profile.NewProfiler builds one.
	// Profiling never changes computed results.
	Profiler experiments.Profiler
}

// PolicySwitch schedules a mid-run selection-policy change.
type PolicySwitch struct {
	// At is the simulation time of the switch (offset into the span).
	At time.Duration
	// To is the policy in force from At on.
	To core.SelectionPolicy
}

// StoreOptions configures the disk-backed trace store of a study.
// Every study needs its own directory: concurrent studies (RunMany)
// sharing one Dir would overwrite each other's shards.
type StoreOptions struct {
	// Dir is the store directory. It is created if missing; stale
	// shard files in it are replaced.
	Dir string
	// SegmentRecords is the per-dataset spill threshold (records per
	// segment). Zero means the tracestore default (64Ki records,
	// a few MB decoded). Smaller segments lower peak memory; larger
	// ones compress and scan slightly better.
	SegmentRecords int
}

// Study is the result of a run: the world (for active probing) and the
// captured traces (for passive analysis).
type Study struct {
	World       *topology.World
	Catalog     *content.Catalog
	Placement   *core.Placement
	Selector    *core.Selector
	Span        time.Duration
	Seed        int64
	Parallelism int

	// Selection holds the ground-truth selection outcomes of the run
	// (preferred-DC fraction, served RTT, redirect-chain lengths) —
	// what ComparePolicies tabulates per policy.
	Selection cdn.SelectionMetrics
	// Sessions is the number of sessions executed across all vantage
	// points.
	Sessions int

	// Metrics is the registry the run was instrumented into (nil when
	// Options.Metrics was nil). The post-run analysis keeps recording
	// into it (store scans), so a -report emitted after the tables
	// includes the full pipeline.
	Metrics *obs.Registry

	mem      *capture.MemSink   // in-memory capture (nil when store-backed)
	store    *tracestore.Reader // disk-backed capture (nil when in-memory)
	profiler experiments.Profiler

	expOnce sync.Once
	exp     *experiments.Harness
}

// Run builds the paper world, generates the five networks' workloads,
// executes them against the selection engine, and captures the traces.
func Run(opts Options) (*Study, error) {
	if opts.Seed == 0 {
		opts.Seed = 20100904
	}
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	if opts.Span == 0 {
		opts.Span = 7 * 24 * time.Hour
	}
	if err := checkSpanScale(opts); err != nil {
		return nil, err
	}

	w, err := topology.BuildPaperWorld(topology.PaperConfig{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("ytcdn: %w", err)
	}
	return RunWorld(w, opts)
}

// RunWorld runs a study against a caller-built (and possibly modified)
// world — for example with altered preferred-DC overrides to model the
// assignment-policy change the paper observed in its February 2011
// follow-up dataset. Seed, Scale and Span default as in Run.
func RunWorld(w *topology.World, opts Options) (*Study, error) {
	if opts.Seed == 0 {
		opts.Seed = 20100904
	}
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	if opts.Span == 0 {
		opts.Span = 7 * 24 * time.Hour
	}

	cat, err := content.NewCatalog(content.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("ytcdn: %w", err)
	}

	placement, err := core.NewPlacement(w, cat, core.OriginPolicy{CopiesPerVideo: 2})
	if err != nil {
		return nil, fmt.Errorf("ytcdn: %w", err)
	}

	selCfg := core.DefaultConfig()
	selCfg.Policy = opts.Policy
	sel, err := core.NewSelector(w, placement, selCfg)
	if err != nil {
		return nil, fmt.Errorf("ytcdn: %w", err)
	}
	if opts.Metrics != nil {
		sel.Instrument(opts.Metrics)
	}

	// Validate the scenario timeline before the store writer below
	// touches disk: opening a store replaces existing shard files, so
	// every option error must surface first.
	if sw := opts.PolicySwitch; sw != nil {
		if sw.To == nil {
			return nil, fmt.Errorf("ytcdn: PolicySwitch.To must be set")
		}
		if err := core.ValidatePolicy(sw.To); err != nil {
			return nil, fmt.Errorf("ytcdn: PolicySwitch: %w", err)
		}
		if sw.At < 0 || sw.At >= opts.Span {
			// At == Span is rejected too: no decision happens at or
			// after the end of the span, so such a switch silently
			// changes nothing — a misconfiguration, not a scenario.
			return nil, fmt.Errorf("ytcdn: PolicySwitch.At %v outside span [0, %v)", sw.At, opts.Span)
		}
	}

	if err := checkSpanScale(opts); err != nil {
		return nil, err
	}

	var mem *capture.MemSink
	var writer *tracestore.Writer
	var sink capture.Sink
	if opts.Store != nil {
		writer, err = tracestore.NewWriter(opts.Store.Dir, tracestore.Options{
			SegmentRecords: opts.Store.SegmentRecords,
		})
		if err != nil {
			return nil, fmt.Errorf("ytcdn: %w", err)
		}
		if opts.Metrics != nil {
			writer.Instrument(opts.Metrics)
		}
		sink = writer
	} else {
		mem = capture.NewMemSink()
		sink = mem
	}
	if opts.ExtraSink != nil {
		sink = capture.NewTeeSink(sink, opts.ExtraSink)
	}

	// One engine and one simulator for every vantage point. Generators
	// are wired in VP order, which fixes the event sequence numbers and
	// so the order of events at equal times.
	root := stats.NewRNG(opts.Seed)
	eng := &des.Engine{}
	sim, err := cdn.NewSimulator(w, cat, sel, eng, sink, cdn.DefaultConfig(), root, opts.Span)
	if err != nil {
		return nil, fmt.Errorf("ytcdn: %w", err)
	}
	if opts.Metrics != nil {
		sim.Instrument(opts.Metrics)
		eng.Instrument(opts.Metrics)
	}
	for i, vp := range w.VantagePoints {
		gen, err := workload.NewGenerator(w, i, cat, opts.Span, root.Fork("workload-"+vp.Name))
		if err != nil {
			return nil, fmt.Errorf("ytcdn: %w", err)
		}
		if opts.Metrics != nil {
			gen.Instrument(opts.Metrics)
		}
		gen.Schedule(eng, sim.SubmitSession)
	}

	if sw := opts.PolicySwitch; sw != nil {
		// Validated above (before the store writer), so the switch
		// cannot fail mid-run. It lands after every event strictly
		// before sw.At and before any event at or after it.
		eng.RunBefore(sw.At)
		_ = sel.SetPolicy(sw.To)
	}
	eng.Run()

	var store *tracestore.Reader
	if mem != nil {
		mem.Trim()
	}
	if writer != nil {
		if err := writer.Close(); err != nil {
			return nil, fmt.Errorf("ytcdn: %w", err)
		}
		store, err = tracestore.OpenReader(opts.Store.Dir)
		if err != nil {
			return nil, fmt.Errorf("ytcdn: %w", err)
		}
		if opts.Metrics != nil {
			store.Instrument(opts.Metrics)
		}
	}

	return &Study{
		World:       w,
		Catalog:     cat,
		Placement:   placement,
		Selector:    sel,
		Span:        opts.Span,
		Seed:        opts.Seed,
		Parallelism: opts.Parallelism,
		Selection:   sim.Metrics(),
		Sessions:    sim.Sessions(),
		Metrics:     opts.Metrics,
		mem:         mem,
		store:       store,
		profiler:    opts.Profiler,
	}, nil
}

// checkSpanScale rejects a negative Span or Scale. Zero means the
// default for both; a negative value means nothing, and must fail
// before RunWorld's store writer replaces any shard files.
func checkSpanScale(opts Options) error {
	if opts.Span < 0 {
		return fmt.Errorf("ytcdn: Span %v must be >= 0", opts.Span)
	}
	if !(opts.Scale >= 0) { // also rejects NaN
		return fmt.Errorf("ytcdn: Scale %v must be >= 0", opts.Scale)
	}
	return nil
}

// RunMany executes one independent study per Options entry, running up
// to parallelism of them concurrently (values < 1 mean one per core).
// Every study gets its own world, DES engine and RNG streams forked
// from its own seed, so result i is bit-identical to Run(optss[i]) no
// matter how the studies are scheduled. The first error in index order
// is returned.
func RunMany(optss []Options, parallelism int) ([]*Study, error) {
	studies := make([]*Study, len(optss))
	errs := make([]error, len(optss))
	par.ForEach(len(optss), par.Normalize(parallelism), func(i int) {
		studies[i], errs[i] = Run(optss[i])
	})
	return studies, par.FirstError(errs)
}

// Replicates derives n copies of base whose seeds are forked from the
// base seed by replicate index, for seed-sweep studies via RunMany.
// The derivation is order-independent, so replicate i has the same
// seed no matter how many replicates are requested.
func Replicates(base Options, n int) []Options {
	if base.Seed == 0 {
		base.Seed = 20100904
	}
	out := make([]Options, n)
	for i := range out {
		out[i] = base
		out[i].Seed = stats.ForkSeed(base.Seed, fmt.Sprintf("replicate/%d", i))
	}
	return out
}

// Trace returns the flow records captured at the named vantage point.
// In-memory studies return a fresh copy in emission order; disk-backed
// studies materialize the shard (segments in spill order, records
// start-sorted within each segment — the stored order). The slice is
// the caller's to keep. For large disk-backed studies prefer
// TraceIter, which also surfaces read errors; Trace returns what was
// readable.
func (s *Study) Trace(dataset string) []capture.FlowRecord {
	if s.store != nil {
		recs, _ := capture.Collect(s.store.Iter(dataset))
		return recs
	}
	return s.mem.Trace(dataset)
}

// TraceIter streams the flow records captured at the named vantage
// point. Disk-backed studies decode one segment at a time; check the
// iterator's Err after exhaustion.
func (s *Study) TraceIter(dataset string) capture.Iterator {
	return s.source().Iter(dataset)
}

// StoreDir returns the disk store directory, or "" for an in-memory
// study.
func (s *Study) StoreDir() string {
	if s.store == nil {
		return ""
	}
	return s.store.Dir()
}

// source exposes the captured traces as a capture.TraceSource. Both
// paths report every expected dataset — including one that captured
// zero flows — so a store-backed study renders the same zero rows an
// in-memory one does. The in-memory path iterates the sink's chunks in
// place: the simulation has finished, so nothing needs copying.
func (s *Study) source() capture.TraceSource {
	if s.store != nil {
		return storeSource{allDatasetsSource{inner: s.store}, s.store}
	}
	return allDatasetsSource{inner: s.mem}
}

// allDatasetsSource widens a trace source to the study's full dataset
// list: neither sink creates a dataset before its first record, so a
// zero-flow dataset would otherwise vanish from the analysis instead
// of rendering as a zero row.
type allDatasetsSource struct {
	inner capture.TraceSource
}

// Datasets returns the union of the expected names and whatever the
// source recorded, sorted.
func (s allDatasetsSource) Datasets() []string {
	seen := make(map[string]bool)
	var out []string
	for _, name := range append(DatasetNames(), s.inner.Datasets()...) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Iter streams a dataset; names absent from the source yield an empty
// iterator.
func (s allDatasetsSource) Iter(dataset string) capture.Iterator { return s.inner.Iter(dataset) }

// storeSource is a store-backed study's source. It adds the store's
// start-ordered scan, the bounded-memory capability the streaming
// sessionizer keys on.
type storeSource struct {
	allDatasetsSource
	store *tracestore.Reader
}

// ScanByStart forwards the store's start-ordered stream.
func (s storeSource) ScanByStart(dataset string) capture.Iterator {
	return s.store.ScanByStart(dataset)
}

// TotalFlows returns the number of flows captured across all datasets.
func (s *Study) TotalFlows() int {
	if s.store != nil {
		return int(s.store.TotalRecords())
	}
	return s.mem.TotalRecords()
}

// Experiments returns the harness that regenerates the paper's tables
// and figures from this study. The harness is built once and shared
// by every caller: its caches are concurrency-safe, and the PlanetLab
// experiment mutates per-study state (placement pull-through, the
// fresh-video counter) that must be claimed through a single harness.
func (s *Study) Experiments() *experiments.Harness {
	s.expOnce.Do(func() {
		s.exp = experiments.New(experiments.Input{
			World:       s.World,
			Catalog:     s.Catalog,
			Placement:   s.Placement,
			Source:      s.source(),
			Span:        s.Span,
			Seed:        s.Seed,
			Parallelism: s.Parallelism,
			Profiler:    s.profiler,
		})
	})
	return s.exp
}
