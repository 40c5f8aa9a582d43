// Package experiments regenerates every table and figure of the paper
// from simulated traces and active measurements. Each experiment is a
// method on Harness returning a result struct with the numbers the
// paper plots; render.go turns them into paper-style text output.
//
// The harness caches the expensive shared artifacts — each dataset's
// census, ping campaigns, CBG calibration and per-server geolocation,
// per-dataset sessionization — so the full suite runs each step once.
// The census is one scan of a dataset's trace (an analysis.Census):
// Tables I–II, Fig 4, the server set that localization and the ping
// campaign start from, and the §IV Google server set all read it. The
// sessionizing passes (the T=1s tally, Figs 5 and 16) each open the
// source's start-ordered scan, ScanByStart, so no pass copies a trace,
// whatever the source. The harness is safe for concurrent use: each
// artifact is guarded by a sync.Once (or a per-dataset once cell), and
// the embarrassingly parallel stages — the per-dataset censuses, CBG
// localization of every server, the per-VP ping campaigns, the five
// per-dataset analysis pipelines — fan out across a bounded worker
// pool sized by Input.Parallelism. Because all measurement noise comes
// from order-independent forked RNG streams, and results merge in
// dataset or address order, a parallel run is bit-identical to a
// sequential one at the same seed.
package experiments

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/analysis"
	"github.com/ytcdn-sim/ytcdn/internal/asdb"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/geoloc"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/par"
	"github.com/ytcdn-sim/ytcdn/internal/probe"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// Input bundles what a study run produced.
type Input struct {
	World     *topology.World
	Catalog   *content.Catalog
	Placement *core.Placement
	// Source supplies the per-dataset traces as streams: an in-memory
	// capture.MemSink or capture.MapSource, or a tracestore.Reader over
	// a disk-backed study. Every pass streams its records, and the
	// sessionizing figures stream the source's ScanByStart, which
	// buffers only the records within the trace's start-order lag, so
	// no pass copies a trace and paper-scale studies analyze in bounded
	// memory. Results are bit-identical across sources holding the
	// same records.
	Source capture.TraceSource
	Span   time.Duration
	Seed   int64
	// Parallelism bounds the worker pool used for the parallel stages.
	// 1 runs strictly sequentially; values < 1 mean "one worker per
	// core". The computed results are identical either way.
	Parallelism int
	// Profiler, when non-nil, receives the harness's pipeline phases
	// (localization, probing, per-dataset analysis) for wall-clock
	// timing. The interface is defined here, narrow, so this package
	// never imports the wall-clock obs subpackages — the profiler's
	// clock stays lexically outside the deterministic scope the
	// rngpurity/obsplane lint rules police. Profiling has no effect on
	// computed results.
	Profiler Profiler
}

// Profiler times named pipeline phases. obs/profile.Profiler satisfies
// it; the stop function returned by Phase ends the measurement.
type Profiler interface {
	Phase(name string) func()
}

// Harness runs experiments over one study. Safe for concurrent use.
type Harness struct {
	in     Input
	par    int
	prober *probe.Prober

	// Lazily computed shared state, each guarded by its own once.
	geoOnce   sync.Once
	geoErr    error
	cbg       *geoloc.CBG
	regions   map[ipnet.Addr]geoloc.Region
	locations map[ipnet.Addr]geo.Point

	mu sync.Mutex // guards perDS
	// guarded by mu
	perDS map[string]*datasetCells

	plMu sync.Mutex // serializes PlanetLab runs (they mutate the placement)
	// plRuns counts PlanetLab invocations (each uploads a fresh video).
	// guarded by plMu
	plRuns int
}

// cell computes a value exactly once, caching result and error, while
// letting distinct cells compute concurrently.
type cell[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (c *cell[T]) do(compute func() (T, error)) (T, error) {
	c.once.Do(func() { c.val, c.err = compute() })
	return c.val, c.err
}

// datasetCells holds one dataset's once-cells: its census, its vantage
// point's ping campaign and its analysis artifacts.
type datasetCells struct {
	census   cell[*traceCensus]
	campaign cell[map[ipnet.Addr]float64]
	dataset  cell[*dataset]
}

// cells returns (creating on first use) the once-cells of one dataset.
func (h *Harness) cells(name string) *datasetCells {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.perDS[name]
	if !ok {
		c = &datasetCells{}
		h.perDS[name] = c
	}
	return c
}

// traceCensus is what the harness keeps of one dataset's census: the
// Table I, Table II and Fig 4 results and two sorted server sets. The
// census's maps and kept flow sizes are dropped once these are read,
// so what survives is bounded by the distinct-server set.
type traceCensus struct {
	summary   analysis.TraceSummary
	breakdown analysis.ASBreakdown
	sizes     analysis.FlowSizes
	// servers is every distinct server of the trace; google is the
	// §IV Google-AS subset of it (Table III and the DC map).
	servers []ipnet.Addr
	google  []ipnet.Addr
}

// dataset caches the per-trace analysis artifacts that need the
// census, the CBG locations and the ping campaign. No flow slice is
// retained — not even the §IV Google-AS subset: every figure streams
// the records it needs through googleIter/videoIter (and the
// sessionizing figures through StreamSessions or SessionTalliesIter
// over a start-ordered stream), so what survives here is bounded by
// the distinct-server and distinct-video sets, never the trace size.
type dataset struct {
	vp    *topology.VantagePoint
	dcmap *analysis.DCMap
	pref  analysis.PreferredResult
	// tally aggregates the T=1s sessions (Fig 6 histogram, Fig 10
	// breakdown) without materializing them.
	tally *analysis.SessionTally
	// nonPrefVideos is the per-video non-preferred accounting
	// (Figs 13/14/16).
	nonPrefVideos []analysis.VideoNonPrefCount
}

// New builds a harness. Build at most one harness per study when
// using PlanetLab: the experiment mutates the shared placement and
// claims fresh videos through this harness's counter, so two
// harnesses over one Input would interfere.
func New(in Input) *Harness {
	return &Harness{
		in:     in,
		par:    par.Normalize(in.Parallelism),
		prober: probe.New(in.World, stats.NewRNG(in.Seed).Fork("probe")),
		perDS:  make(map[string]*datasetCells),
	}
}

// Input returns the harness input.
func (h *Harness) Input() Input { return h.in }

// phase starts timing a pipeline phase on the input profiler; the
// returned stop function is a no-op when profiling is off.
func (h *Harness) phase(name string) func() {
	if h.in.Profiler == nil {
		return func() {}
	}
	return h.in.Profiler.Phase(name)
}

// Parallelism returns the effective worker-pool bound.
func (h *Harness) Parallelism() int { return h.par }

// iter opens a fresh stream over one dataset's records.
func (h *Harness) iter(name string) capture.Iterator { return h.in.Source.Iter(name) }

// googleIter opens a fresh stream over one dataset's §IV Google-AS
// subset (lazy filter — nothing is materialized).
func (h *Harness) googleIter(name string) capture.Iterator {
	return h.google(name, h.in.Source.Iter)
}

// googleByStart is googleIter in start order, the order the
// sessionizers need (the T=1s tally, Fig 5's one pass over every T,
// Fig 16): the filter over the source's ScanByStart.
func (h *Harness) googleByStart(name string) capture.Iterator {
	return h.google(name, h.in.Source.ScanByStart)
}

// google filters the stream open returns for one dataset to its §IV
// Google-AS subset.
func (h *Harness) google(name string, open func(string) capture.Iterator) capture.Iterator {
	idx := h.in.World.VPIndex(name)
	if idx < 0 {
		return capture.ErrIter(fmt.Errorf("experiments: unknown dataset %q", name))
	}
	vp := h.in.World.VantagePoints[idx]
	return analysis.GoogleIter(open(name), h.in.World.Registry, vp.AS.Number)
}

// videoIter narrows googleIter to video flows.
func (h *Harness) videoIter(name string) capture.Iterator {
	return analysis.VideoIter(h.googleIter(name))
}

// census returns (computing on first use) one dataset's census, from a
// single scan of its trace. A name without a vantage point has no
// "Same AS" bucket; only its server set is read.
func (h *Harness) census(name string) (*traceCensus, error) {
	return h.cells(name).census.do(func() (*traceCensus, error) {
		defer h.phase("analysis")()
		var clientAS asdb.ASN
		if idx := h.in.World.VPIndex(name); idx >= 0 {
			clientAS = h.in.World.VantagePoints[idx].AS.Number
		}
		c := analysis.NewCensus(h.in.World.Registry, clientAS, int(h.in.Source.Records(name)))
		it := h.iter(name)
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			c.Add(r)
		}
		if err := it.Err(); err != nil {
			return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
		}
		return &traceCensus{
			summary:   c.Summary(),
			breakdown: c.Breakdown(),
			sizes:     c.FlowSizes(),
			servers:   c.Servers(),
			google:    c.GoogleServers(),
		}, nil
	})
}

// censuses returns the censuses of the named datasets, in order,
// computing the missing ones across the worker pool. It returns the
// first error in name order.
func (h *Harness) censuses(names []string) ([]*traceCensus, error) {
	out := make([]*traceCensus, len(names))
	errs := make([]error, len(names))
	par.ForEach(len(names), h.par, func(i int) {
		out[i], errs[i] = h.census(names[i])
	})
	return out, par.FirstError(errs)
}

// servers returns the sorted union of distinct server addresses across
// every trace of the source.
func (h *Harness) servers() ([]ipnet.Addr, error) {
	cs, err := h.censuses(h.in.Source.Datasets())
	if err != nil {
		return nil, err
	}
	var out []ipnet.Addr
	for _, c := range cs {
		out = append(out, c.servers...)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// campaign returns (caching) the per-server min-RTT ping results from
// one vantage point to every server of its trace, in milliseconds. The
// per-target probes fan out across the worker pool; per-pair RNG
// forking keeps the results bit-identical at any pool size.
func (h *Harness) campaign(vpName string) (map[ipnet.Addr]float64, error) {
	return h.cells(vpName).campaign.do(func() (map[ipnet.Addr]float64, error) {
		c, err := h.census(vpName)
		if err != nil {
			return nil, err
		}
		defer h.phase("probing")()
		return h.prober.CampaignFromVP(vpName, c.servers, 10, h.par)
	})
}

// Geolocate runs the full CBG pipeline once: calibrate bestlines on
// the landmark cross-RTT matrix, then localize every distinct server
// seen in any trace. Per-server localizations (one landmark sweep plus
// one disc intersection each) are independent, so they fan out across
// the worker pool; each server's measurement noise comes from a stream
// forked by server address, and results merge in sorted-address order,
// so the outcome does not depend on the pool size.
//
// The returned map is a copy; mutating it does not corrupt the cached
// pipeline output. In-package callers on hot paths use the live
// geolocate instead.
func (h *Harness) Geolocate() (map[ipnet.Addr]geoloc.Region, error) {
	regions, err := h.geolocate()
	if err != nil {
		return nil, err
	}
	out := make(map[ipnet.Addr]geoloc.Region, len(regions))
	for addr, r := range regions {
		out[addr] = r
	}
	return out, nil
}

// geolocate returns the live cached region map, shared across callers;
// it must be treated as read-only.
func (h *Harness) geolocate() (map[ipnet.Addr]geoloc.Region, error) {
	h.geoOnce.Do(func() {
		// The server set comes first, so that the localization phase
		// times CBG alone.
		servers, err := h.servers()
		if err != nil {
			h.geoErr = err
			return
		}
		defer h.phase("localization")()
		lms := h.prober.LandmarkInfos()
		cross := h.prober.CrossRTTMatrix(5, h.par)
		cbg, err := geoloc.Calibrate(lms, func(i, j int) time.Duration { return cross[i][j] })
		if err != nil {
			h.geoErr = fmt.Errorf("experiments: CBG calibration: %w", err)
			return
		}
		h.cbg = cbg

		// The sweep's route table lives for this pass only.
		sweep := h.prober.LandmarkSweep()
		located := make([]bool, len(servers))
		results := make([]geoloc.Region, len(servers))
		par.ForEach(len(servers), h.par, func(i int) {
			rtts, err := sweep.RTTs(servers[i], 3)
			if err != nil {
				return // unroutable servers drop out, as in real sweeps
			}
			results[i] = cbg.Locate(rtts)
			located[i] = true
		})

		regions := make(map[ipnet.Addr]geoloc.Region, len(servers))
		locs := make(map[ipnet.Addr]geo.Point, len(servers))
		for i, addr := range servers {
			if !located[i] {
				continue
			}
			regions[addr] = results[i]
			locs[addr] = results[i].Centroid
		}
		h.regions = regions
		h.locations = locs
	})
	return h.regions, h.geoErr
}

// Locations returns the CBG position estimates per server. The
// returned map is a copy; mutating it does not corrupt the cache.
func (h *Harness) Locations() (map[ipnet.Addr]geo.Point, error) {
	locs, err := h.liveLocations()
	if err != nil {
		return nil, err
	}
	out := make(map[ipnet.Addr]geo.Point, len(locs))
	for addr, p := range locs {
		out[addr] = p
	}
	return out, nil
}

// liveLocations returns the live cached position map, shared across
// callers; it must be treated as read-only.
func (h *Harness) liveLocations() (map[ipnet.Addr]geo.Point, error) {
	if _, err := h.geolocate(); err != nil {
		return nil, err
	}
	return h.locations, nil
}

// Dataset returns (computing on first use) the cached per-trace
// analysis artifacts: the §IV Google filter, flow classification,
// data-center clustering from CBG locations, the preferred DC, and
// T=1s sessions. Distinct datasets may compute concurrently; repeated
// calls for one dataset share a single computation.
func (h *Harness) Dataset(name string) (*dataset, error) {
	return h.cells(name).dataset.do(func() (*dataset, error) { return h.buildDataset(name) })
}

// buildDataset computes one dataset's artifacts from its census and a
// handful of streaming passes; nothing trace-sized is retained.
func (h *Harness) buildDataset(name string) (*dataset, error) {
	defer h.phase("analysis")()
	idx := h.in.World.VPIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	vp := h.in.World.VantagePoints[idx]
	if !h.hasDataset(name) {
		return nil, fmt.Errorf("experiments: no trace for %q", name)
	}
	locs, err := h.liveLocations()
	if err != nil {
		return nil, err
	}

	// The §IV Google servers and their CBG locations. Cluster only this
	// dataset's servers (the paper clusters what each trace saw; /24
	// aggregation is implicit).
	c, err := h.census(name)
	if err != nil {
		return nil, err
	}
	dsLocs := make(map[ipnet.Addr]geo.Point)
	for _, a := range c.google {
		if loc, ok := locs[a]; ok {
			dsLocs[a] = loc
		}
	}
	dcmap := analysis.BuildDCMap(dsLocs, 100)

	rtts, err := h.campaign(name)
	if err != nil {
		return nil, err
	}

	// Pass 1: the preferred data center, from the video subset.
	pref, err := analysis.FindPreferredIter(h.videoIter(name), dcmap, rtts, vp.City.Point)
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
	}

	// Pass 2: T=1s sessions, streamed in start order and tallied on the
	// fly — the sessions themselves never exist as a slice.
	tally := analysis.NewSessionTally(10)
	err = analysis.StreamSessions(h.googleByStart(name), time.Second, func(s analysis.Session) {
		tally.Add(s, dcmap, pref.Preferred)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sessionizing %s: %w", name, err)
	}

	// Pass 3: per-video non-preferred accounting.
	nonPrefVideos, err := analysis.NonPreferredPerVideoIter(h.videoIter(name), dcmap, pref.Preferred)
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
	}

	return &dataset{
		vp:            vp,
		dcmap:         dcmap,
		pref:          pref,
		tally:         tally,
		nonPrefVideos: nonPrefVideos,
	}, nil
}

// Warm computes every shared artifact — geolocation, then the per-VP
// ping campaigns and per-dataset pipelines — using the worker pool.
// After Warm, every table and figure is a cheap aggregation. Warm is
// idempotent and returns the first error in dataset order.
func (h *Harness) Warm() error {
	if _, err := h.geolocate(); err != nil {
		return err
	}
	names := h.DatasetNames()
	errs := make([]error, len(names))
	par.ForEach(len(names), h.par, func(i int) {
		_, errs[i] = h.Dataset(names[i])
	})
	return par.FirstError(errs)
}

// DatasetNames returns the dataset names present in the input, in the
// paper's order.
func (h *Harness) DatasetNames() []string {
	var out []string
	for _, name := range topology.DatasetNames() {
		if h.hasDataset(name) {
			out = append(out, name)
		}
	}
	return out
}

// hasDataset reports whether the source carries a trace for name.
func (h *Harness) hasDataset(name string) bool {
	for _, n := range h.in.Source.Datasets() {
		if n == name {
			return true
		}
	}
	return false
}
