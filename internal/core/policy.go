package core

import (
	"fmt"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// SelectionPolicy is the pluggable brain of the selection engine: it
// answers the two questions the paper reverse-engineers — which data
// center the authoritative DNS resolves a (LDNS, video) query to, and
// whether a contacted server serves or redirects. The engine
// (Selector) keeps everything that is *not* policy: the RTT-ranked DC
// map, load accounting, placement mutation (pull-through on misses)
// and the ground-truth mechanism counters.
//
// Policies observe engine state only through the restricted PolicyView
// and must be deterministic given the view and the per-decision RNG:
// all randomness has to come from draws on view.RNG so that runs stay
// bit-reproducible under a fixed seed.
type SelectionPolicy interface {
	// Name returns a short stable identifier ("paper", "proximity",
	// ...) used by the comparison harness and command-line flags.
	Name() string

	// ResolveDNS picks the data center the authoritative DNS answers
	// with (step 3 of the paper's Fig 1). The engine maps the returned
	// DC to the video's consistently-hashed server and counts the
	// resolution as a spill when it leaves the preferred DC.
	ResolveDNS(v PolicyView, id topology.LDNSID, vid content.VideoID) topology.DataCenterID

	// ServeOrRedirect decides whether the contacted server serves the
	// video or answers with a redirect (step 4 of Fig 1). On a miss
	// redirect the engine pulls the video into the contacted server's
	// DC (pull-through caching) and bumps the miss counter; hotspot
	// redirects bump the hotspot counter.
	ServeOrRedirect(v PolicyView, srv topology.ServerID, vid content.VideoID, id topology.LDNSID, home Home) Decision
}

// RacingPolicy is implemented by policies whose DNS step hands the
// player several candidate servers to race ("go-with-the-winner"): the
// player samples each candidate's response time and commits to the
// first responder, reporting the commitment back through
// Selector.CommitRace. A policy that returns no candidates falls back
// to the ordinary ResolveDNS path for that query.
type RacingPolicy interface {
	SelectionPolicy

	// RaceCandidates lists the servers the player should race for this
	// query, in deterministic order.
	RaceCandidates(v PolicyView, id topology.LDNSID, vid content.VideoID) []topology.ServerID
}

// validatingPolicy lets a policy reject bad configuration at selector
// construction time.
type validatingPolicy interface {
	Validate() error
}

// ValidatePolicy checks a policy's configuration without installing
// it: nil policies are rejected, and policies exposing Validate get
// it called. The selector applies the same checks in NewSelector and
// SetPolicy; callers that schedule a policy for later (scenario
// timelines) use this to fail fast instead.
func ValidatePolicy(p SelectionPolicy) error {
	if p == nil {
		return fmt.Errorf("core: nil SelectionPolicy")
	}
	if v, ok := p.(validatingPolicy); ok {
		return v.Validate()
	}
	return nil
}

// PolicyView is the restricted, read-only window a policy gets into
// the engine: the per-LDNS RTT ranking, live DC/server loads and
// capacities, placement lookups, the within-DC video hash, and the
// per-decision RNG. It deliberately exposes no mutation — load
// accounting, pull-through and counters stay with the engine — and no
// raw internal slices, so a policy cannot corrupt ground truth.
//
// PolicyView is a value; constructing one allocates nothing.
type PolicyView struct {
	// RNG is the per-decision random stream. It is the requesting
	// player's session stream threaded through the engine, so policy
	// draws interleave deterministically with player draws.
	RNG *stats.RNG

	sel *Selector
}

// Preferred returns the ground-truth preferred DC of the LDNS.
func (v PolicyView) Preferred(id topology.LDNSID) topology.DataCenterID {
	return v.sel.prefByLDNS[id]
}

// NumRanked returns the number of Google DCs in the LDNS's ranking.
func (v PolicyView) NumRanked(id topology.LDNSID) int {
	return len(v.sel.rankByLDNS[id])
}

// RankedDC returns the i-th closest Google DC of the LDNS (0 = lowest
// base RTT). Indexed access instead of a slice keeps the hot path free
// of defensive copies.
func (v PolicyView) RankedDC(id topology.LDNSID, i int) topology.DataCenterID {
	return v.sel.rankByLDNS[id][i]
}

// DCLoad returns the DC's current concurrent video-flow count (the
// DNS-level load signal).
func (v PolicyView) DCLoad(dc topology.DataCenterID) int {
	return v.sel.dcFlows.Load(int(dc))
}

// DCCapacity returns the DC's DNS-level flow capacity; 0 means
// unbounded.
func (v PolicyView) DCCapacity(dc topology.DataCenterID) int {
	return v.sel.w.DC(dc).DNSCapacity
}

// ServerLoad returns the server's current concurrent session count.
func (v PolicyView) ServerLoad(srv topology.ServerID) int {
	return v.sel.srvSess.Load(int(srv))
}

// ServerCapacity returns the server's session capacity; 0 means
// unbounded.
func (v PolicyView) ServerCapacity(srv topology.ServerID) int {
	return v.sel.w.Server(srv).Capacity
}

// ServerDC returns the data center a server belongs to.
func (v PolicyView) ServerDC(srv topology.ServerID) topology.DataCenterID {
	return v.sel.w.Server(srv).DC
}

// ServerForVideo returns the server a video maps to inside a DC by the
// engine's consistent hash.
func (v PolicyView) ServerForVideo(dc topology.DataCenterID, vid content.VideoID) topology.ServerID {
	return v.sel.serverFor(dc, vid)
}

// HasVideo reports whether dc currently holds the video for a
// requester with the given origin parameters.
func (v PolicyView) HasVideo(dc topology.DataCenterID, vid content.VideoID, home Home) bool {
	return v.sel.placement.Has(dc, vid, home.Continent, home.ForeignProb, home.Weights)
}

// Origins returns the origin DCs of a tail video for the requester
// (nil for replicated videos — they are everywhere).
func (v PolicyView) Origins(vid content.VideoID, home Home) []topology.DataCenterID {
	return v.sel.placement.Origins(vid, home.Continent, home.ForeignProb, home.Weights)
}

// ClosestOf returns the candidate DC ranked best for the LDNS, using
// the engine's precomputed rank-index table (no per-call allocation).
// An empty candidate set yields the preferred DC; candidates outside
// the ranking lose to any ranked one, and an all-unranked set yields
// the first candidate.
func (v PolicyView) ClosestOf(id topology.LDNSID, candidates []topology.DataCenterID) topology.DataCenterID {
	return v.sel.closestTo(id, candidates)
}
