// Package experiments regenerates every table and figure of the paper
// from simulated traces and active measurements. Each experiment is a
// method on Harness returning a result struct with the numbers the
// paper plots; render.go turns them into paper-style text output.
//
// The harness caches the expensive shared artifacts — ping campaigns,
// CBG calibration and per-server geolocation, per-dataset
// sessionization — so the full suite runs each step once. It is safe
// for concurrent use: each artifact is guarded by a sync.Once (or a
// per-dataset once cell), and the embarrassingly parallel stages — CBG
// localization of every server, the per-VP ping campaigns, the five
// per-dataset analysis pipelines — fan out across a bounded worker
// pool sized by Input.Parallelism. Because all measurement noise comes
// from order-independent forked RNG streams, a parallel run is
// bit-identical to a sequential one at the same seed.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/analysis"
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
	// Source supplies the per-dataset traces as streams: a
	// capture.MapSource over in-memory records, or a tracestore.Reader
	// over a disk-backed study. Every pass streams its records, and a
	// source that can also scan a dataset in start order (the store's
	// ScanByStart) feeds the sessionizing figures without materializing
	// anything, so paper-scale studies analyze in bounded memory.
	// Results are bit-identical across sources holding the same
	// records.
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
	serversOnce sync.Once
	serversErr  error
	allServers  []ipnet.Addr

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

// datasetCells holds one dataset's once-cells: its vantage point's
// ping campaign, its analysis artifacts, and its start-ordered Google
// stream factory.
type datasetCells struct {
	campaign cell[map[ipnet.Addr]float64]
	dataset  cell[*dataset]
	starts   cell[func() capture.Iterator]
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

// dataset caches per-trace analysis artifacts. No flow slice is
// retained — not even the §IV Google-AS subset: every figure streams
// the records it needs through googleIter/videoIter (and the
// sessionizing figures through StreamSessions or SessionTalliesIter
// over a start-ordered stream), so what survives here is bounded by
// the distinct-server and distinct-video sets, never the trace size.
type dataset struct {
	vp *topology.VantagePoint
	// googleServers is the sorted distinct server set of the §IV
	// Google-filtered trace (Table III).
	googleServers []ipnet.Addr
	dcmap         *analysis.DCMap
	pref          analysis.PreferredResult
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
	idx := h.in.World.VPIndex(name)
	if idx < 0 {
		return capture.ErrIter(fmt.Errorf("experiments: unknown dataset %q", name))
	}
	vp := h.in.World.VantagePoints[idx]
	return analysis.GoogleIter(h.iter(name), h.in.World.Registry, vp.AS.Number)
}

// videoIter narrows googleIter to video flows.
func (h *Harness) videoIter(name string) capture.Iterator {
	return analysis.VideoIter(h.googleIter(name))
}

// startScanner is the optional TraceSource capability the disk-backed
// store provides: a start-ordered stream with bounded buffering.
type startScanner interface {
	ScanByStart(dataset string) capture.Iterator
}

// googleStartSource returns a factory of fresh start-ordered streams
// over one dataset's §IV Google-AS subset — the input shape the
// sessionizers require, reusable when several passes sessionize one
// dataset (the per-dataset T=1s tally, Fig 5's one pass over every T,
// Fig 16). A store-backed source opens a bounded ScanByStart merge per
// call; an in-memory source, which already holds the trace, filters
// then sorts the (much smaller) Google subset once per dataset —
// cached in a cell, shared by every sessionizing figure — and
// re-serves it (the sort is stable, so equal starts keep emission
// order, matching the store's tie-break).
func (h *Harness) googleStartSource(name string) (func() capture.Iterator, error) {
	return h.cells(name).starts.do(func() (func() capture.Iterator, error) {
		idx := h.in.World.VPIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("experiments: unknown dataset %q", name)
		}
		if !h.hasDataset(name) {
			return nil, fmt.Errorf("experiments: no trace for %q", name)
		}
		vp := h.in.World.VantagePoints[idx]
		if s, ok := h.in.Source.(startScanner); ok {
			return func() capture.Iterator {
				return analysis.GoogleIter(s.ScanByStart(name), h.in.World.Registry, vp.AS.Number)
			}, nil
		}
		recs, err := capture.Collect(h.googleIter(name))
		if err != nil {
			return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
		return func() capture.Iterator { return capture.IterSlice(recs) }, nil
	})
}

// servers returns the sorted union of distinct server addresses across
// all traces, streaming each trace once.
func (h *Harness) servers() ([]ipnet.Addr, error) {
	h.serversOnce.Do(func() {
		seen := make(map[ipnet.Addr]struct{})
		for _, name := range h.in.Source.Datasets() {
			it := h.iter(name)
			for {
				r, ok := it.Next()
				if !ok {
					break
				}
				seen[r.Server] = struct{}{}
			}
			if err := it.Err(); err != nil {
				h.serversErr = fmt.Errorf("experiments: scanning %s: %w", name, err)
				return
			}
		}
		out := make([]ipnet.Addr, 0, len(seen))
		for a := range seen {
			out = append(out, a)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		h.allServers = out
	})
	return h.allServers, h.serversErr
}

// campaign returns (caching) the per-server min-RTT ping results from
// one vantage point, in milliseconds. The per-target probes fan out
// across the worker pool; per-pair RNG forking keeps the results
// bit-identical at any pool size.
func (h *Harness) campaign(vpName string) (map[ipnet.Addr]float64, error) {
	return h.cells(vpName).campaign.do(func() (map[ipnet.Addr]float64, error) {
		defer h.phase("probing")()
		targets, err := h.datasetServers(vpName)
		if err != nil {
			return nil, err
		}
		return h.prober.CampaignFromVP(vpName, targets, 10, h.par)
	})
}

// datasetServers returns the sorted distinct servers of one trace,
// streaming it once.
func (h *Harness) datasetServers(vpName string) ([]ipnet.Addr, error) {
	seen := make(map[ipnet.Addr]struct{})
	it := h.iter(vpName)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		seen[r.Server] = struct{}{}
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", vpName, err)
	}
	out := make([]ipnet.Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
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
		defer h.phase("localization")()
		lms := h.prober.LandmarkInfos()
		cross := h.prober.CrossRTTMatrix(5, h.par)
		cbg, err := geoloc.Calibrate(lms, func(i, j int) time.Duration { return cross[i][j] })
		if err != nil {
			h.geoErr = fmt.Errorf("experiments: CBG calibration: %w", err)
			return
		}
		h.cbg = cbg

		servers, err := h.servers()
		if err != nil {
			h.geoErr = err
			return
		}
		located := make([]bool, len(servers))
		results := make([]geoloc.Region, len(servers))
		par.ForEach(len(servers), h.par, func(i int) {
			rtts, err := h.prober.LandmarkRTTs(servers[i], 3)
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

// buildDataset computes one dataset's artifacts in a handful of
// streaming passes; nothing trace-sized is retained.
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

	// Pass 1: the distinct Google servers and their CBG locations.
	// Cluster only this dataset's servers (the paper clusters what each
	// trace saw; /24 aggregation is implicit).
	seen := make(map[ipnet.Addr]struct{})
	dsLocs := make(map[ipnet.Addr]geo.Point)
	it := h.googleIter(name)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if _, dup := seen[r.Server]; dup {
			continue
		}
		seen[r.Server] = struct{}{}
		if loc, ok := locs[r.Server]; ok {
			dsLocs[r.Server] = loc
		}
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
	}
	servers := make([]ipnet.Addr, 0, len(seen))
	for a := range seen {
		servers = append(servers, a)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	dcmap := analysis.BuildDCMap(dsLocs, 100)

	rtts, err := h.campaign(name)
	if err != nil {
		return nil, err
	}

	// Pass 2: the preferred data center, from the video subset.
	pref, err := analysis.FindPreferredIter(h.videoIter(name), dcmap, rtts, vp.City.Point)
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
	}

	// Pass 3: T=1s sessions, streamed in start order and tallied on the
	// fly — the sessions themselves never exist as a slice.
	googleStart, err := h.googleStartSource(name)
	if err != nil {
		return nil, err
	}
	tally := analysis.NewSessionTally(10)
	err = analysis.StreamSessions(googleStart(), time.Second, func(s analysis.Session) {
		tally.Add(s, dcmap, pref.Preferred)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sessionizing %s: %w", name, err)
	}

	// Pass 4: per-video non-preferred accounting.
	nonPrefVideos, err := analysis.NonPreferredPerVideoIter(h.videoIter(name), dcmap, pref.Preferred)
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
	}

	return &dataset{
		vp:            vp,
		googleServers: servers,
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
