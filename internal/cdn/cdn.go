// Package cdn executes video sessions against the selection engine:
// it models the Flash-player side of the paper's Fig 1 (DNS lookup,
// HTTP request, possible redirect chain, video download) and emits the
// flow records a Tstat probe at the vantage point would log.
package cdn

import (
	"fmt"
	"math"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/netmodel"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// Config tunes player-side behaviour.
type Config struct {
	// PreludeProb is the probability a session opens with a short
	// control exchange (e.g. format negotiation) before the video
	// request, producing the paper's (preferred, preferred) two-flow
	// sessions (Fig 10b).
	PreludeProb float64
	// FollowUpProb is the probability the user interacts with the
	// player (seek, resolution change) causing an extra video flow
	// after a multi-second gap — the flows that merge into one session
	// only at large T in Fig 5.
	FollowUpProb float64
	// FollowUpGapMin/Max bound the user-interaction gap.
	FollowUpGapMin, FollowUpGapMax time.Duration
	// RedirectGapMax bounds the client-side pause between a redirect
	// control flow and the next connection (well under the paper's
	// T=1s so system-triggered flows stay in one session).
	RedirectGapMax time.Duration
	// ControlBytesMin/Max bound control-flow sizes; they must stay
	// below the paper's 1000-byte classification threshold.
	ControlBytesMin, ControlBytesMax int64
	// WatchFullProb is the probability a viewer watches to the end.
	WatchFullProb float64
	// MinWatchFrac is the minimum watched fraction for early-abort
	// viewers.
	MinWatchFrac float64
	// StartupDelay is the fixed connection+buffering overhead added to
	// every video flow's lifetime.
	StartupDelay time.Duration
}

// DefaultConfig returns calibrated player behaviour.
func DefaultConfig() Config {
	return Config{
		PreludeProb:     0.085,
		FollowUpProb:    0.19,
		FollowUpGapMin:  12 * time.Second,
		FollowUpGapMax:  650 * time.Second,
		RedirectGapMax:  400 * time.Millisecond,
		ControlBytesMin: 220,
		ControlBytesMax: 980,
		WatchFullProb:   0.55,
		MinWatchFrac:    0.04,
		StartupDelay:    700 * time.Millisecond,
	}
}

// raceQueuePenalty scales the queueing delay a racing player observes
// from a loaded candidate server. At full utilisation the penalty
// (one raceQueuePenalty) dwarfs typical inter-DC RTT differences, so
// a saturated nearby server loses the race to an idle farther one —
// the property that lets go-with-the-winner clients steer around
// hot-spots without server cooperation.
const raceQueuePenalty = 400 * time.Millisecond

// SelectionMetrics aggregates ground-truth outcomes of the selection
// chains executed through the Google selection path (legacy and
// third-party quirk sessions are excluded: no policy controls them).
// It is what the policy-comparison harness tabulates per policy.
type SelectionMetrics struct {
	// Chains counts executed selection chains (DNS answer or race
	// commitment through serve, including follow-up interactions).
	Chains int
	// ServedPreferred counts chains whose serving server sits in the
	// requester's ground-truth preferred DC.
	ServedPreferred int
	// Redirects is the total number of redirect hops followed.
	Redirects int
	// MaxChain is the longest redirect chain observed.
	MaxChain int
	// SumServedRTT accumulates the deterministic base RTT between the
	// vantage point and the serving server, one term per chain.
	SumServedRTT time.Duration
	// RaceWins counts chains resolved by client-side racing.
	RaceWins int
}

// PreferredFrac returns the fraction of chains served from the
// requester's preferred DC.
func (m SelectionMetrics) PreferredFrac() float64 {
	if m.Chains == 0 {
		return 0
	}
	return float64(m.ServedPreferred) / float64(m.Chains)
}

// MeanRedirects returns the mean redirect-chain length in hops.
func (m SelectionMetrics) MeanRedirects() float64 {
	if m.Chains == 0 {
		return 0
	}
	return float64(m.Redirects) / float64(m.Chains)
}

// MeanServedRTTms returns the mean base RTT to the serving server in
// milliseconds.
func (m SelectionMetrics) MeanServedRTTms() float64 {
	if m.Chains == 0 {
		return 0
	}
	return float64(m.SumServedRTT) / float64(m.Chains) / float64(time.Millisecond)
}

// Request is one user-initiated video session.
type Request struct {
	VP int // index into World.VantagePoints
	// SubnetIdx indexes the client's subnet in the VP's Subnets; it
	// selects the per-subnet player RNG stream the session draws from.
	SubnetIdx int
	Subnet    *topology.Subnet
	Client    ipnet.Addr
	Video     content.VideoID
	Res       content.Resolution
}

// Simulator executes sessions. It owns no clock of its own: callers
// schedule SubmitSession on the shared des.Engine. One simulator serves
// every vantage point, with per-VP endpoints, origin parameters and
// quirk pools. Every draw a session makes comes from its subnet's own
// player stream — the "player-<vp>" fork of the root, sub-forked per
// subnet index — so a subnet's draw order depends only on that
// subnet's event sequence. Those streams fix the draws of every pinned
// trace.
type Simulator struct {
	w    *topology.World
	cat  *content.Catalog
	sel  *core.Selector
	eng  *des.Engine
	sink capture.Sink
	cfg  Config
	// root is the seed-level RNG parent the per-subnet player streams
	// fork from; the simulator never draws from it directly.
	root *stats.RNG
	// streams caches the per-(vp, subnet) player forks. Accessed only
	// from the engine goroutine.
	streams map[streamKey]*stats.RNG
	// span is the capture window: no new chain is admitted at or after
	// it and the probe records no flow starting at or after it (a real
	// Tstat capture stops at teardown). Zero means unbounded.
	span time.Duration

	// vpEndpoints caches per-VP network endpoints.
	vpEndpoints []netmodel.Endpoint
	// homes caches per-VP origin parameters.
	homes []core.Home
	// quirk caches the server pool each (VP, class) quirk session draws
	// from (see serveFromClass).
	quirk map[quirkKey][]*topology.Server

	sessions  int
	flows     int
	truncated int // flows dropped because they started at/after span
	metrics   SelectionMetrics

	// inst is the optional deterministic-plane instrumentation (see
	// Instrument); nil when metrics are off. Everything recorded here
	// is derived from sim time and event counts the simulator computes
	// anyway, so recording draws no randomness and schedules nothing:
	// a run with inst set is bit-identical to one without.
	inst *instruments
}

// instruments is the simulator's view of the shared registry. The
// counters are separate from the plain sessions/flows/metrics fields
// because a live /metrics scrape reads them from another goroutine
// mid-run — they must be atomic where the plain fields need not be.
type instruments struct {
	sessions     *obs.Counter
	flows        *obs.Counter
	truncated    *obs.Counter
	chains       *obs.Counter
	redirects    *obs.Counter
	raceWins     *obs.Counter
	chainDepth   *obs.Histogram // redirect hops per chain
	chainLatency *obs.Histogram // chain start → video request, sim µs
}

// streamKey identifies one subnet's player stream.
type streamKey struct{ vp, subnet int }

// quirkKey identifies one vantage point's pool of a quirk class.
type quirkKey struct {
	vp    int
	class topology.ServerClass
}

// NewSimulator wires a simulator over a world. g is the seed-level RNG
// parent: session randomness comes from "player-<vp>" / "subnet/<j>"
// forks of it, one stream per subnet. span bounds the capture window
// (see Simulator.span); zero means unbounded.
func NewSimulator(w *topology.World, cat *content.Catalog, sel *core.Selector,
	eng *des.Engine, sink capture.Sink, cfg Config, g *stats.RNG, span time.Duration) (*Simulator, error) {
	if cfg.ControlBytesMax >= 1000 {
		return nil, fmt.Errorf("cdn: ControlBytesMax %d crosses the 1000-byte video threshold", cfg.ControlBytesMax)
	}
	if cfg.ControlBytesMin <= 0 || cfg.ControlBytesMin > cfg.ControlBytesMax {
		return nil, fmt.Errorf("cdn: bad control byte bounds [%d, %d]", cfg.ControlBytesMin, cfg.ControlBytesMax)
	}
	if cfg.MinWatchFrac <= 0 || cfg.MinWatchFrac > 1 {
		return nil, fmt.Errorf("cdn: MinWatchFrac %g out of (0, 1]", cfg.MinWatchFrac)
	}
	if cfg.FollowUpGapMin < 0 || cfg.FollowUpGapMin > cfg.FollowUpGapMax {
		return nil, fmt.Errorf("cdn: bad follow-up gap bounds [%v, %v]", cfg.FollowUpGapMin, cfg.FollowUpGapMax)
	}
	if cfg.RedirectGapMax < 0 {
		return nil, fmt.Errorf("cdn: RedirectGapMax %v must be >= 0", cfg.RedirectGapMax)
	}
	if cfg.StartupDelay < 0 {
		return nil, fmt.Errorf("cdn: StartupDelay %v must be >= 0", cfg.StartupDelay)
	}
	if span < 0 {
		return nil, fmt.Errorf("cdn: span %v must be >= 0", span)
	}
	s := &Simulator{w: w, cat: cat, sel: sel, eng: eng, sink: sink, cfg: cfg,
		root: g, streams: make(map[streamKey]*stats.RNG), span: span,
		quirk: make(map[quirkKey][]*topology.Server)}
	for _, vp := range w.VantagePoints {
		s.vpEndpoints = append(s.vpEndpoints, vp.Endpoint())
		s.homes = append(s.homes, core.HomeOf(vp))
	}
	for _, class := range []topology.ServerClass{topology.ClassLegacyEU, topology.ClassThirdParty} {
		all := w.ServersOfClass(class)
		for i, vp := range w.VantagePoints {
			s.quirk[quirkKey{vp: i, class: class}] = homePool(w, vp, all)
		}
	}
	return s, nil
}

// homePool narrows a legacy/third-party server pool to the servers a
// vantage point's quirk sessions reach. American networks are pinned
// to the US-located residue of the old infrastructure (the paper's
// US-Campus sees ~310 distinct AS-43515 servers against Europe's ~550,
// Table II), while European networks draw from the whole footprint.
func homePool(w *topology.World, vp *topology.VantagePoint, all []*topology.Server) []*topology.Server {
	if vp.HomeContinent() != geo.NorthAmerica {
		return all
	}
	var same []*topology.Server
	for _, srv := range all {
		if w.DC(srv.DC).City.Continent == geo.NorthAmerica {
			same = append(same, srv)
		}
	}
	if len(same) == 0 {
		return all
	}
	return same
}

// Instrument publishes the simulator's progress into reg under the
// "sim.cdn.*" names. Lookups get-or-create, so simulators instrumented
// into the same registry share instruments and the published values
// are totals across them. Call before the run starts.
func (s *Simulator) Instrument(reg *obs.Registry) {
	s.inst = &instruments{
		sessions:     reg.Counter("sim.cdn.sessions"),
		flows:        reg.Counter("sim.cdn.flows"),
		truncated:    reg.Counter("sim.cdn.truncated_flows"),
		chains:       reg.Counter("sim.cdn.chains"),
		redirects:    reg.Counter("sim.cdn.redirects"),
		raceWins:     reg.Counter("sim.cdn.race_wins"),
		chainDepth:   reg.Histogram("sim.cdn.chain_depth_hops"),
		chainLatency: reg.Histogram("sim.cdn.chain_latency_us"),
	}
}

// Sessions returns the number of sessions executed so far.
func (s *Simulator) Sessions() int { return s.sessions }

// Flows returns the number of flows emitted so far.
func (s *Simulator) Flows() int { return s.flows }

// Truncated returns the number of flows the probe dropped because they
// started at or after the capture window.
func (s *Simulator) Truncated() int { return s.truncated }

// Metrics returns the ground-truth selection outcomes accumulated so
// far.
func (s *Simulator) Metrics() SelectionMetrics { return s.metrics }

// rng returns (forking on first use) the player stream of the
// request's subnet. Forking is order-independent, so the stream does
// not depend on when the subnet's first session arrives.
func (s *Simulator) rng(req Request) *stats.RNG {
	k := streamKey{vp: req.VP, subnet: req.SubnetIdx}
	g, ok := s.streams[k]
	if !ok {
		g = s.root.Fork("player-"+s.w.VantagePoints[req.VP].Name).ForkIndexed("subnet", req.SubnetIdx)
		s.streams[k] = g
	}
	return g
}

// SubmitSession executes a session starting at the engine's current
// time. It must be called from within an engine event.
func (s *Simulator) SubmitSession(req Request) {
	s.sessions++
	if s.inst != nil {
		s.inst.sessions.Inc()
	}
	vp := s.w.VantagePoints[req.VP]
	g := s.rng(req)

	// Quirk paths: residual legacy YouTube-EU servers and third-party
	// caches, reached outside Google's DNS selection (Table II).
	if g.Bool(vp.LegacyProb) {
		s.serveFromClass(req, g, topology.ClassLegacyEU)
		return
	}
	if g.Bool(vp.ThirdPartyProb) {
		s.serveFromClass(req, g, topology.ClassThirdParty)
		return
	}

	s.runChain(req, g, s.eng.Now(), 1.0)

	// User interaction: an extra, shorter video flow after a gap that
	// exceeds T=1s (new session at small T, same session at large T).
	// A follow-up landing at or after the capture window is not
	// admitted: the capture has been torn down by then, and admitting
	// it would extend the trace past the configured span (the gap can
	// reach FollowUpGapMax past the last arrival). The gap is drawn
	// either way so the session's RNG stream does not depend on where
	// the session sits in the window.
	if g.Bool(s.cfg.FollowUpProb) {
		gap := time.Duration(g.Uniform(float64(s.cfg.FollowUpGapMin), float64(s.cfg.FollowUpGapMax)))
		if s.span <= 0 || s.eng.Now()+gap < s.span {
			req := req
			s.eng.ScheduleAfter(gap, func() {
				s.runChain(req, g, s.eng.Now(), 0.3)
			})
		}
	}
}

// runChain performs server selection (DNS resolution, or a candidate
// race under a racing policy) and the serve-or-redirect chain,
// emitting control flows for each redirect and one final video flow.
// watchScale shrinks the watched fraction (for follow-up interactions).
func (s *Simulator) runChain(req Request, g *stats.RNG, start time.Duration, watchScale float64) {
	vp := s.w.VantagePoints[req.VP]
	ldns := req.Subnet.LDNS
	home := s.homes[req.VP]

	t := start
	var srv topology.ServerID
	if cands := s.sel.RaceCandidates(ldns, req.Video, g); len(cands) > 0 {
		srv = s.raceWinner(req.VP, g, cands)
		s.sel.CommitRace(ldns, srv)
		s.metrics.RaceWins++
		if s.inst != nil {
			s.inst.raceWins.Inc()
		}
	} else {
		srv = s.sel.ResolveDNS(ldns, req.Video, g)
	}

	// Optional control prelude to the resolved server.
	if g.Bool(s.cfg.PreludeProb) {
		t = s.emitControl(vp, req, g, srv, t)
	}

	hops := 0
	maxHops := s.sel.MaxRedirects()
	for {
		if hops == maxHops {
			// The redirect bound is exhausted: the last redirect
			// target serves no matter what. The policy is still
			// consulted so a miss at this final hop keeps its
			// pull-through and miss accounting — previously the video
			// was emitted from a DC that might not hold it, with no
			// accounting at all.
			s.sel.ServeFinal(srv, req.Video, ldns, home, g)
			break
		}
		d := s.sel.ServeOrRedirect(srv, req.Video, ldns, home, g)
		if !d.Redirected {
			break
		}
		// The refused connection is a short control flow.
		t = s.emitControl(vp, req, g, srv, t)
		srv = d.Target
		hops++
	}

	s.metrics.Chains++
	s.metrics.Redirects += hops
	if hops > s.metrics.MaxChain {
		s.metrics.MaxChain = hops
	}
	if s.w.Server(srv).DC == s.sel.Preferred(ldns) {
		s.metrics.ServedPreferred++
	}
	s.metrics.SumServedRTT += s.w.Net.BaseRTT(s.vpEndpoints[req.VP], s.serverEndpoint(srv))

	if s.inst != nil {
		s.inst.chains.Inc()
		s.inst.redirects.Add(int64(hops))
		s.inst.chainDepth.Observe(int64(hops))
		s.inst.chainLatency.Observe(int64((t - start) / time.Microsecond))
	}

	s.emitVideo(vp, req, g, srv, t, watchScale)
}

// raceWinner models the go-with-the-winner player hook: it opens the
// race to every candidate, observes each one's time to first byte —
// one sampled network RTT plus a queueing delay growing quadratically
// with the server's utilisation — and commits to the first responder.
// The losers' connections are torn down during the handshake, before
// any payload, so they fall below the capture pipeline's flow
// threshold and are not recorded.
func (s *Simulator) raceWinner(vpIdx int, g *stats.RNG, cands []topology.ServerID) topology.ServerID {
	best := cands[0]
	bestT := time.Duration(math.MaxInt64)
	for _, c := range cands {
		ttfb := s.w.Net.SampleRTT(s.vpEndpoints[vpIdx], s.serverEndpoint(c), g)
		if capacity := s.w.Server(c).Capacity; capacity > 0 {
			util := float64(s.sel.ServerLoad(c)) / float64(capacity)
			ttfb += time.Duration(util * util * float64(raceQueuePenalty))
		}
		if ttfb < bestT {
			best, bestT = c, ttfb
		}
	}
	return best
}

// serveFromClass serves a session from a uniformly chosen server of
// the vantage point's legacy/third-party pool (see homePool).
func (s *Simulator) serveFromClass(req Request, g *stats.RNG, class topology.ServerClass) {
	pool := s.quirkPool(req.VP, class)
	if len(pool) == 0 {
		return
	}
	srv := pool[g.Intn(len(pool))]
	s.emitVideo(s.w.VantagePoints[req.VP], req, g, srv.ID, s.eng.Now(), 1.0)
}

// quirkPool returns the pool a quirk session of class at vantage point
// vp draws from, as NewSimulator built it.
func (s *Simulator) quirkPool(vp int, class topology.ServerClass) []*topology.Server {
	return s.quirk[quirkKey{vp: vp, class: class}]
}

// emitControl records a sub-1000-byte control flow to srv starting at
// t and returns the time the client moves on.
func (s *Simulator) emitControl(vp *topology.VantagePoint, req Request, g *stats.RNG, srv topology.ServerID, t time.Duration) time.Duration {
	rtt := s.w.Net.SampleRTT(s.vpEndpoints[req.VP], s.serverEndpoint(srv), g)
	dur := 2*rtt + time.Duration(g.Uniform(10, 60))*time.Millisecond
	bytes := int64(g.Uniform(float64(s.cfg.ControlBytesMin), float64(s.cfg.ControlBytesMax)))
	s.record(vp.Name, capture.FlowRecord{
		Client:     req.Client,
		Server:     s.w.Server(srv).Addr,
		Start:      t,
		End:        t + dur,
		Bytes:      bytes,
		VideoID:    content.StringID(req.Video),
		Resolution: req.Res.String(),
	})
	gap := time.Duration(g.Uniform(0, float64(s.cfg.RedirectGapMax)))
	return t + dur + gap
}

// emitVideo records the video flow at srv and manages load accounting.
func (s *Simulator) emitVideo(vp *topology.VantagePoint, req Request, g *stats.RNG, srv topology.ServerID, t time.Duration, watchScale float64) {
	watch := 1.0
	if !g.Bool(s.cfg.WatchFullProb) {
		watch = g.Uniform(s.cfg.MinWatchFrac, 1)
	}
	watch *= watchScale
	if watch > 1 {
		watch = 1
	}

	fullBytes := float64(s.cat.SizeBytes(req.Video, req.Res)) * vp.SizeScale
	bytes := int64(fullBytes * watch)
	if bytes < 1000 {
		bytes = 1000 // a video flow is ≥ the classification threshold
	}
	dur := time.Duration(watch*s.cat.Duration(req.Video).Seconds()*float64(time.Second)) + s.cfg.StartupDelay

	s.sel.BeginFlow(srv)
	end := t + dur
	s.eng.Schedule(end, func() { s.sel.EndFlow(srv) })

	s.record(vp.Name, capture.FlowRecord{
		Client:     req.Client,
		Server:     s.w.Server(srv).Addr,
		Start:      t,
		End:        end,
		Bytes:      bytes,
		VideoID:    content.StringID(req.Video),
		Resolution: req.Res.String(),
	})
}

// serverEndpoint maps a server to its data center's network endpoint.
// (The DC's cached Endpoint inlines into this body, which puts it past
// the inlining budget — so the contract here is allocation-freedom,
// not inlining.)
//
//perf:noalloc
func (s *Simulator) serverEndpoint(id topology.ServerID) netmodel.Endpoint {
	return s.w.DC(s.w.Server(id).DC).Endpoint()
}

// record logs one flow into the capture sink, honouring the capture
// window. It runs once per emitted flow — the busiest sink call in a
// simulation — so it must stay allocation-free itself (the sink
// behind it owns any buffering).
//
//perf:hot
//perf:noalloc
func (s *Simulator) record(dataset string, rec capture.FlowRecord) {
	// The probe is torn down at the end of the capture window: a flow
	// starting at or after it is never logged (its load accounting
	// still runs — the network does not stop with the capture).
	if s.span > 0 && rec.Start >= s.span {
		s.truncated++
		if s.inst != nil {
			s.inst.truncated.Inc()
		}
		return
	}
	s.flows++
	if s.inst != nil {
		s.inst.flows.Inc()
	}
	s.sink.Record(dataset, rec)
}
