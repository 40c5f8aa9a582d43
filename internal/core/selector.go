package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// Config tunes the selection engine.
type Config struct {
	// MaxRedirects bounds an application-layer redirect chain.
	MaxRedirects int
	// Policy is the selection policy the engine delegates to. Nil
	// means the paper's behaviour, DefaultPaperPolicy; the paper's
	// ablations are PaperPolicy values with a mechanism switched off.
	Policy SelectionPolicy
}

// DefaultConfig returns the engine configuration matching the paper's
// observed behaviour.
func DefaultConfig() Config {
	return Config{MaxRedirects: 3}
}

// Decision is a content server's answer to a video request.
type Decision struct {
	// Redirected is false when the contacted server serves the video.
	Redirected bool
	// Target is the server the client is redirected to (valid when
	// Redirected).
	Target topology.ServerID
	// Reason records why the request was redirected, for ablation
	// accounting; it is ground truth the analysis pipeline never sees.
	Reason RedirectReason
}

// RedirectReason labels the cause of an application-layer redirect.
type RedirectReason int

// Redirect reasons.
const (
	ReasonNone    RedirectReason = iota
	ReasonMiss                   // video absent at this data center
	ReasonHotspot                // server above capacity
)

// String implements fmt.Stringer.
func (r RedirectReason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonMiss:
		return "miss"
	case ReasonHotspot:
		return "hotspot"
	default:
		return "invalid"
	}
}

// Selector is the server-selection engine. Since the policy split it
// is deliberately thin: it owns the ground truth a policy consults
// (the per-LDNS preferred map and RTT ranking), the shared load
// trackers, the placement layer (including pull-through on misses)
// and the mechanism counters — and delegates every actual decision to
// its SelectionPolicy through a restricted PolicyView.
//
// The Selector is safe for concurrent use. The live /metrics gauges
// (see Instrument) read its load trackers and mechanism counters from
// the scrape goroutine mid-run, so those are atomic; placement
// pull-through is mutex-guarded, and the active policy sits behind an
// atomic pointer so a SetPolicy cannot race an in-flight decision.
type Selector struct {
	w         *topology.World
	placement *Placement
	cfg       Config
	policy    atomic.Pointer[SelectionPolicy]

	// prefByLDNS is the ground-truth preferred DC per local DNS
	// server: RTT-best unless overridden by assignment policy.
	prefByLDNS []topology.DataCenterID
	// rankByLDNS lists Google DCs in increasing RTT order per LDNS.
	rankByLDNS [][]topology.DataCenterID
	// rankIndex inverts rankByLDNS: rankIndex[ldns][dc] is dc's rank,
	// -1 for DCs outside the ranking. Built once so the miss-redirect
	// hot path (closestTo) never allocates.
	rankIndex [][]int32

	dcFlows  *LoadTracker // concurrent video flows per DC (DNS view)
	srvSess  *LoadTracker // concurrent sessions per server
	spills   atomic.Int64 // resolutions answered off-preferred
	hotspots atomic.Int64 // hotspot redirect count
	misses   atomic.Int64 // miss redirect count
}

// NewSelector builds the engine for a world. The preferred map is
// computed from base RTTs between each vantage point and each Google
// DC, then patched with the world's assignment-policy overrides.
func NewSelector(w *topology.World, placement *Placement, cfg Config) (*Selector, error) {
	if cfg.MaxRedirects < 1 {
		return nil, fmt.Errorf("core: MaxRedirects must be >= 1, got %d", cfg.MaxRedirects)
	}
	policy := cfg.Policy
	if policy == nil {
		policy = DefaultPaperPolicy()
	}
	if err := ValidatePolicy(policy); err != nil {
		return nil, err
	}
	s := &Selector{
		w:          w,
		placement:  placement,
		cfg:        cfg,
		prefByLDNS: make([]topology.DataCenterID, len(w.LDNSes)),
		rankByLDNS: make([][]topology.DataCenterID, len(w.LDNSes)),
		rankIndex:  make([][]int32, len(w.LDNSes)),
		dcFlows:    NewLoadTracker("dc-flows", len(w.DataCenters)),
		srvSess:    NewLoadTracker("server-sessions", len(w.Servers)),
	}
	s.policy.Store(&policy)
	google := w.GoogleDCs()
	for _, ldns := range w.LDNSes {
		vp := w.VantagePoints[ldns.VantagePoint]
		ep := vp.Endpoint()
		ranked := make([]topology.DataCenterID, len(google))
		copy(ranked, google)
		sort.Slice(ranked, func(i, j int) bool {
			return w.Net.BaseRTT(ep, w.DC(ranked[i]).Endpoint()) <
				w.Net.BaseRTT(ep, w.DC(ranked[j]).Endpoint())
		})
		s.rankByLDNS[ldns.ID] = ranked
		idx := make([]int32, len(w.DataCenters))
		for i := range idx {
			idx[i] = -1
		}
		for rank, dc := range ranked {
			idx[dc] = int32(rank)
		}
		s.rankIndex[ldns.ID] = idx
		if dc, ok := w.PreferredOverrides[ldns.ID]; ok {
			s.prefByLDNS[ldns.ID] = dc
		} else {
			s.prefByLDNS[ldns.ID] = ranked[0]
		}
	}
	return s, nil
}

// Policy returns the active selection policy.
func (s *Selector) Policy() SelectionPolicy { return *s.policy.Load() }

// SetPolicy swaps the active selection policy, modelling the
// assignment-policy change the paper observed between its 2010 capture
// and the February 2011 follow-up. Load trackers, placement state and
// mechanism counters carry over — only future decisions change. The
// swap is atomic: decisions already holding the old policy finish
// under it, later decisions see the new one.
func (s *Selector) SetPolicy(p SelectionPolicy) error {
	if err := ValidatePolicy(p); err != nil {
		return err
	}
	s.policy.Store(&p)
	return nil
}

// MaxRedirects returns the engine's redirect-chain bound.
func (s *Selector) MaxRedirects() int { return s.cfg.MaxRedirects }

// view builds the restricted policy window for one decision.
func (s *Selector) view(g *stats.RNG) PolicyView { return PolicyView{RNG: g, sel: s} }

// Preferred returns the ground-truth preferred DC of an LDNS.
func (s *Selector) Preferred(id topology.LDNSID) topology.DataCenterID {
	return s.prefByLDNS[id]
}

// RankedDCs returns the LDNS's Google DCs in increasing RTT order.
// The slice is a copy: the ranking is ground truth shared by every
// policy decision, so callers must not be able to corrupt it.
func (s *Selector) RankedDCs(id topology.LDNSID) []topology.DataCenterID {
	ranked := s.rankByLDNS[id]
	out := make([]topology.DataCenterID, len(ranked))
	copy(out, ranked)
	return out
}

// serverFor returns the server a video maps to inside a DC, by
// consistent hashing. One server absorbs all of a video's load within
// a DC — the precondition for hot-spots.
//
//perf:hot
//perf:noalloc
func (s *Selector) serverFor(dc topology.DataCenterID, v content.VideoID) topology.ServerID {
	fleet := s.w.DC(dc).Servers
	idx := hashU64("video-server", int64(dc), int64(v)) % uint64(len(fleet))
	return fleet[idx].ID
}

// ResolveDNS models step 3 of the paper's Fig 1: the authoritative DNS
// answers the LDNS's query for a video-specific content hostname. The
// policy picks the data center; the engine maps it to the video's
// hashed server and counts off-preferred answers as spills.
func (s *Selector) ResolveDNS(id topology.LDNSID, v content.VideoID, g *stats.RNG) topology.ServerID {
	dc := s.Policy().ResolveDNS(s.view(g), id, v)
	if dc != s.prefByLDNS[id] {
		s.spills.Add(1)
	}
	return s.serverFor(dc, v)
}

// RaceCandidates returns the policy's candidate servers for
// client-side racing, or nil when the active policy does not race.
// The caller (the player) commits to a winner via CommitRace.
func (s *Selector) RaceCandidates(id topology.LDNSID, v content.VideoID, g *stats.RNG) []topology.ServerID {
	rp, ok := s.Policy().(RacingPolicy)
	if !ok {
		return nil
	}
	return rp.RaceCandidates(s.view(g), id, v)
}

// CommitRace records the server a racing player committed to, keeping
// the spill ground truth consistent with the DNS path: a commitment
// outside the requester's preferred DC counts as a spill.
func (s *Selector) CommitRace(id topology.LDNSID, srv topology.ServerID) {
	if s.w.Server(srv).DC != s.prefByLDNS[id] {
		s.spills.Add(1)
	}
}

// Home carries the requester-side origin parameters of a vantage
// point: its continent plus the foreign-tail bias (see Placement).
type Home struct {
	Continent   geo.Continent
	ForeignProb float64
	Weights     map[geo.Continent]float64
}

// HomeOf derives the Home parameters of a vantage point.
func HomeOf(vp *topology.VantagePoint) Home {
	return Home{
		Continent:   vp.HomeContinent(),
		ForeignProb: vp.TailForeignProb,
		Weights:     vp.ForeignWeights,
	}
}

// ServeOrRedirect models step 4 of Fig 1: the contacted server either
// serves the video or answers with a redirect, as decided by the
// policy. The engine applies the decision's side effects: a miss
// redirect pulls the video into the contacted server's DC
// (pull-through caching, so only the first access pays — paper Figs
// 17/18) and bumps the miss counter; a hotspot redirect bumps the
// hotspot counter. home parameterizes tail-video origin lookup for
// the requesting network (see Placement); g is the per-decision RNG
// (the built-in policies draw nothing here, so nil is acceptable for
// them).
func (s *Selector) ServeOrRedirect(srv topology.ServerID, v content.VideoID, ldns topology.LDNSID, home Home, g *stats.RNG) Decision {
	d := s.Policy().ServeOrRedirect(s.view(g), srv, v, ldns, home)
	if !d.Redirected {
		return d
	}
	switch d.Reason {
	case ReasonMiss:
		s.placement.Pull(s.w.Server(srv).DC, v)
		s.misses.Add(1)
	case ReasonHotspot:
		s.hotspots.Add(1)
	}
	return d
}

// ServeFinal models the forced serve at the end of a bounded redirect
// chain: a client that has exhausted MaxRedirects is served by the
// last redirect target no matter what. The policy is still consulted
// so a content miss at the final hop keeps its real-world side effects
// — the serving data center must fetch the video, so the engine pulls
// it through and counts the miss — but the redirect itself is
// suppressed. A hotspot decision at the bound needs no side effects
// (nothing was redirected and serving requires no placement change),
// so it is dropped without touching the hotspot counter.
func (s *Selector) ServeFinal(srv topology.ServerID, v content.VideoID, ldns topology.LDNSID, home Home, g *stats.RNG) {
	d := s.Policy().ServeOrRedirect(s.view(g), srv, v, ldns, home)
	if d.Redirected && d.Reason == ReasonMiss {
		s.placement.Pull(s.w.Server(srv).DC, v)
		s.misses.Add(1)
	}
}

// closestTo returns the candidate DC ranked best for the LDNS, via the
// precomputed rank-index table (the map-free hot path under miss
// redirection). The candidates slice is never empty in practice
// (origins of a tail video always exist); if it were, the preferred DC
// is returned. Candidates outside the ranking lose to any ranked one;
// an all-unranked set yields the first candidate.
//
//perf:hot
//perf:noalloc
func (s *Selector) closestTo(id topology.LDNSID, candidates []topology.DataCenterID) topology.DataCenterID {
	if len(candidates) == 0 {
		return s.prefByLDNS[id]
	}
	idx := s.rankIndex[id]
	best := candidates[0]
	bestRank := int32(-1)
	for _, dc := range candidates {
		rank := idx[dc]
		if rank >= 0 && (bestRank < 0 || rank < bestRank) {
			best, bestRank = dc, rank
		}
	}
	return best
}

// BeginFlow records a video flow starting at server srv: the server
// gains a session and its DC gains a flow. The caller must invoke
// EndFlow exactly once when the flow finishes.
func (s *Selector) BeginFlow(srv topology.ServerID) {
	s.srvSess.Acquire(int(srv))
	s.dcFlows.Acquire(int(s.w.Server(srv).DC))
}

// EndFlow balances BeginFlow.
func (s *Selector) EndFlow(srv topology.ServerID) {
	s.srvSess.Release(int(srv))
	s.dcFlows.Release(int(s.w.Server(srv).DC))
}

// DCLoad returns the current concurrent flow count of a DC.
func (s *Selector) DCLoad(dc topology.DataCenterID) int { return s.dcFlows.Load(int(dc)) }

// ServerLoad returns the current concurrent session count of a server.
func (s *Selector) ServerLoad(srv topology.ServerID) int { return s.srvSess.Load(int(srv)) }

// Counters returns ground-truth mechanism counts (off-preferred DNS
// answers or race commitments, hotspot redirects, miss redirects) for
// ablation studies and the policy-comparison harness.
func (s *Selector) Counters() (spills, hotspots, misses int) {
	return int(s.spills.Load()), int(s.hotspots.Load()), int(s.misses.Load())
}

// Instrument publishes the selector's live state into reg as derived
// gauges: the mechanism counters ("sim.selector.spills" / ".hotspots"
// / ".misses"), total concurrent flows and sessions, and one
// "sim.selector.dc_load.dc-<id>-<city>" gauge per Google DC. Derived
// gauges only read atomics the selector maintains anyway, so a scrape
// mid-run neither blocks nor perturbs decisions.
func (s *Selector) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("sim.selector.spills", func() float64 { return float64(s.spills.Load()) })
	reg.GaugeFunc("sim.selector.hotspots", func() float64 { return float64(s.hotspots.Load()) })
	reg.GaugeFunc("sim.selector.misses", func() float64 { return float64(s.misses.Load()) })
	reg.GaugeFunc("sim.selector.flows_active", func() float64 { return float64(s.dcFlows.Total()) })
	reg.GaugeFunc("sim.selector.sessions_active", func() float64 { return float64(s.srvSess.Total()) })
	for _, id := range s.w.GoogleDCs() {
		id := id
		dc := s.w.DC(id)
		name := fmt.Sprintf("sim.selector.dc_load.dc-%d-%s", dc.ID, dc.City.Name)
		reg.GaugeFunc(name, func() float64 { return float64(s.dcFlows.Load(int(id))) })
	}
}

// ServerForVideo exposes the within-DC consistent hash (used by the
// probe harness and tests).
func (s *Selector) ServerForVideo(dc topology.DataCenterID, v content.VideoID) topology.ServerID {
	return s.serverFor(dc, v)
}

// PlacementOrigins exposes the origin set of a tail video for a
// requester (convenience for experiments and tests).
func (s *Selector) PlacementOrigins(v content.VideoID, home Home) []topology.DataCenterID {
	return s.placement.Origins(v, home.Continent, home.ForeignProb, home.Weights)
}
