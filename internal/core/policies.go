package core

import (
	"fmt"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// Load-threshold semantics shared by the built-in policies. The two
// comparisons are intentionally asymmetric and the asymmetry is
// calibrated behaviour, not an accident:
//
//   - sheds (load >= capacity) decides when an entity stops accepting
//     *load arriving on its own primary path*: a DC receiving new DNS
//     resolutions of its own clients, or a server receiving its
//     hashed video's requests. Shedding the moment the entity reaches
//     capacity pins its accepted concurrency at exactly the capacity,
//     which is what makes the accepted fraction track capacity/demand
//     (the paper's Fig 11 diurnal shape) and what arms hot-spot
//     redirects at saturation (Figs 14-16).
//   - refuses (load > capacity) decides when a DC is skipped as a
//     *target for load shed from elsewhere* (DNS spills, hotspot
//     redirects). A DC sitting exactly at capacity still absorbs
//     redirected load; only strictly exceeding it closes the door.
//     Using >= here would let the preferred DC's shed load bounce
//     between secondary DCs that hover at their own capacity.
//
// Keep both helpers in sync with this comment; every built-in policy
// goes through them rather than comparing inline.

// sheds reports whether an entity at (load, capacity) sheds load
// arriving on its own primary path — a DC facing its own clients'
// resolutions, or a server facing its hashed video's requests.
// Capacity 0 means unbounded.
func sheds(load, capacity int) bool { return capacity > 0 && load >= capacity }

// refuses reports whether a DC at (load, capacity) refuses load shed
// from elsewhere. Capacity 0 means unbounded.
func refuses(load, capacity int) bool { return capacity > 0 && load > capacity }

// PaperPolicy is the selection policy the paper reverse-engineers:
// RTT-preferred DNS resolution with adaptive spilling away from an
// overloaded preferred DC (§VII-A), miss redirection toward an origin
// copy with pull-through (§VII-C, Figs 13/17/18), and hot-spot
// redirection off saturated servers (§VII-C, Figs 14-16). It is the
// engine default; the §VII ablations are its two booleans.
type PaperPolicy struct {
	// DNSLoadBalancing enables adaptive spilling away from an
	// overloaded preferred DC. Disabling it is the §VII-A ablation.
	DNSLoadBalancing bool
	// HotspotRedirection enables server-level overload redirects.
	// Disabling it is the §VII-C hot-spot ablation.
	HotspotRedirection bool
	// SpillCandidates is how many next-best DCs a spilled resolution
	// considers.
	SpillCandidates int
}

// DefaultPaperPolicy returns the configuration matching the paper's
// observed behaviour.
func DefaultPaperPolicy() *PaperPolicy {
	return &PaperPolicy{DNSLoadBalancing: true, HotspotRedirection: true, SpillCandidates: 3}
}

// Name implements SelectionPolicy.
func (p *PaperPolicy) Name() string { return "paper" }

// Validate rejects unusable configuration.
func (p *PaperPolicy) Validate() error {
	if p.SpillCandidates < 1 {
		return fmt.Errorf("core: SpillCandidates must be >= 1, got %d", p.SpillCandidates)
	}
	return nil
}

// ResolveDNS answers with the preferred DC unless it is shedding, in
// which case the resolution spills to a next-best DC.
func (p *PaperPolicy) ResolveDNS(v PolicyView, id topology.LDNSID, vid content.VideoID) topology.DataCenterID {
	pref := v.Preferred(id)
	if p.DNSLoadBalancing && sheds(v.DCLoad(pref), v.DCCapacity(pref)) {
		// The data center is full: spill this resolution. Keeping
		// accepted concurrency pinned at capacity makes the accepted
		// fraction track capacity/demand, which is the paper's Fig 11
		// behaviour (the internal DC serves ~100% at night and ~30% at
		// daytime overload).
		return p.spillTarget(v, id)
	}
	return pref
}

// spillTarget picks the spill DC: the next-ranked DCs after the
// preferred, skipping ones that refuse shed load.
func (p *PaperPolicy) spillTarget(v PolicyView, id topology.LDNSID) topology.DataCenterID {
	pref := v.Preferred(id)
	candidates := make([]topology.DataCenterID, 0, p.SpillCandidates)
	for i, n := 0, v.NumRanked(id); i < n; i++ {
		dc := v.RankedDC(id, i)
		if dc == pref {
			continue
		}
		if refuses(v.DCLoad(dc), v.DCCapacity(dc)) {
			continue
		}
		candidates = append(candidates, dc)
		if len(candidates) == p.SpillCandidates {
			break
		}
	}
	if len(candidates) == 0 {
		return pref
	}
	// Strongly favour the closest spill candidate: the paper's EU2
	// sees essentially one external data center absorb the spill.
	if len(candidates) == 1 || v.RNG.Bool(0.95) {
		return candidates[0]
	}
	return candidates[1+v.RNG.Intn(len(candidates)-1)]
}

// ServeOrRedirect applies the paper's two redirect causes in observed
// priority order: content miss first, then hot-spot shedding.
func (p *PaperPolicy) ServeOrRedirect(v PolicyView, srv topology.ServerID, vid content.VideoID, id topology.LDNSID, home Home) Decision {
	dc := v.ServerDC(srv)

	// Cause (iv): the data center does not hold the video. Redirect
	// toward the closest origin copy (with the paper's load-balancing
	// spread); the engine pulls the video through so only the first
	// access pays (paper Figs 17/18).
	if !v.HasVideo(dc, vid, home) {
		target := paperPickOrigin(v, id, vid, v.Origins(vid, home))
		return Decision{Redirected: true, Target: v.ServerForVideo(target, vid), Reason: ReasonMiss}
	}

	// Cause (iii): the hashed server is above capacity; shed to a
	// server in a non-preferred data center.
	if p.HotspotRedirection && sheds(v.ServerLoad(srv), v.ServerCapacity(srv)) {
		if target := hotspotTarget(v, id, dc); target != dc {
			return Decision{Redirected: true, Target: v.ServerForVideo(target, vid), Reason: ReasonHotspot}
		}
	}
	return Decision{}
}

// paperPickOrigin chooses which origin copy a miss is redirected to:
// usually the closest to the requester, but a quarter of videos
// (deterministically, by hash) use another copy — origin selection in
// the real CDN balances load as well as proximity, and this spread is
// what makes traces touch servers in nearly every data center of the
// requester's continent (Table III).
func paperPickOrigin(v PolicyView, id topology.LDNSID, vid content.VideoID, origins []topology.DataCenterID) topology.DataCenterID {
	if len(origins) > 1 && hashU64("origin-pick", int64(vid))%4 == 0 {
		alt := origins[hashU64("origin-alt", int64(vid))%uint64(len(origins))]
		if alt != v.ClosestOf(id, origins) {
			return alt
		}
		return origins[hashU64("origin-alt2", int64(vid))%uint64(len(origins))]
	}
	return v.ClosestOf(id, origins)
}

// hotspotTarget picks where an overloaded server sheds a request: the
// best-ranked DC other than its own that does not refuse shed load.
// Returns the server's own DC when nothing qualifies.
func hotspotTarget(v PolicyView, id topology.LDNSID, own topology.DataCenterID) topology.DataCenterID {
	for i, n := 0, v.NumRanked(id); i < n; i++ {
		dc := v.RankedDC(id, i)
		if dc == own {
			continue
		}
		if refuses(v.DCLoad(dc), v.DCCapacity(dc)) {
			continue
		}
		return dc
	}
	return own
}

// ProximityOnly is the pre-2010 strawman the paper contrasts against
// (Adhikari et al. [7]): every resolution goes to the RTT-preferred
// DC, no DNS load balancing, no hot-spot shedding. Misses still
// redirect — content that is not there cannot be served — but always
// to the origin copy closest to the requester, with none of the
// paper's load-balancing spread.
type ProximityOnly struct{}

// Name implements SelectionPolicy.
func (ProximityOnly) Name() string { return "proximity" }

// ResolveDNS always answers with the preferred DC.
func (ProximityOnly) ResolveDNS(v PolicyView, id topology.LDNSID, vid content.VideoID) topology.DataCenterID {
	return v.Preferred(id)
}

// ServeOrRedirect redirects only on content misses, to the closest
// origin.
func (ProximityOnly) ServeOrRedirect(v PolicyView, srv topology.ServerID, vid content.VideoID, id topology.LDNSID, home Home) Decision {
	dc := v.ServerDC(srv)
	if !v.HasVideo(dc, vid, home) {
		target := v.ClosestOf(id, v.Origins(vid, home))
		return Decision{Redirected: true, Target: v.ServerForVideo(target, vid), Reason: ReasonMiss}
	}
	return Decision{}
}

// LeastLoadedDC resolves every query to the DC with the fewest
// concurrent flows among the requester's closest Candidates, breaking
// ties toward proximity. It trades RTT for balance — the opposite
// corner of the design space from ProximityOnly — and keeps the
// paper's serve-side behaviour (miss and hot-spot redirection)
// unchanged so the DNS step is the only variable.
type LeastLoadedDC struct {
	// Candidates is how many closest DCs compete; 0 means 5.
	Candidates int
}

// defaultLeastLoadedCandidates is the candidate-window default.
const defaultLeastLoadedCandidates = 5

// Name implements SelectionPolicy.
func (p *LeastLoadedDC) Name() string { return "least-loaded" }

// Validate rejects unusable configuration.
func (p *LeastLoadedDC) Validate() error {
	if p.Candidates < 0 {
		return fmt.Errorf("core: Candidates must be >= 0, got %d", p.Candidates)
	}
	return nil
}

// ResolveDNS picks the least-loaded of the closest candidate DCs.
func (p *LeastLoadedDC) ResolveDNS(v PolicyView, id topology.LDNSID, vid content.VideoID) topology.DataCenterID {
	k := p.Candidates
	if k == 0 {
		k = defaultLeastLoadedCandidates
	}
	if n := v.NumRanked(id); k > n {
		k = n
	}
	best := v.RankedDC(id, 0)
	bestLoad := v.DCLoad(best)
	for i := 1; i < k; i++ {
		dc := v.RankedDC(id, i)
		if load := v.DCLoad(dc); load < bestLoad {
			best, bestLoad = dc, load
		}
	}
	return best
}

// ServeOrRedirect keeps the paper's serve-side mechanisms.
func (p *LeastLoadedDC) ServeOrRedirect(v PolicyView, srv topology.ServerID, vid content.VideoID, id topology.LDNSID, home Home) Decision {
	return paperServeSide.ServeOrRedirect(v, srv, vid, id, home)
}

// ClientRace is go-with-the-winner selection (Liu et al.,
// "Go-With-The-Winner"): the DNS step hands the player the video's
// hashed server in each of the K closest DCs, the player samples each
// candidate's response time — network RTT plus a queueing delay that
// grows with server load — and commits to the first responder. Busy
// servers answer late, so clients steer around hot-spots themselves;
// the serve side keeps the paper's miss redirection (content that is
// absent still has to come from an origin) but disables server-side
// hot-spot shedding, which racing subsumes.
type ClientRace struct {
	// K is how many candidate servers the player races; 0 means 3.
	K int
}

// defaultRaceK is the candidate-count default.
const defaultRaceK = 3

// Name implements SelectionPolicy.
func (p *ClientRace) Name() string { return "client-race" }

// Validate rejects unusable configuration.
func (p *ClientRace) Validate() error {
	if p.K < 0 {
		return fmt.Errorf("core: K must be >= 0, got %d", p.K)
	}
	return nil
}

// RaceCandidates implements RacingPolicy: the video's hashed server in
// each of the K closest DCs, closest first.
func (p *ClientRace) RaceCandidates(v PolicyView, id topology.LDNSID, vid content.VideoID) []topology.ServerID {
	k := p.K
	if k == 0 {
		k = defaultRaceK
	}
	if n := v.NumRanked(id); k > n {
		k = n
	}
	out := make([]topology.ServerID, k)
	for i := 0; i < k; i++ {
		out[i] = v.ServerForVideo(v.RankedDC(id, i), vid)
	}
	return out
}

// ResolveDNS is the non-racing fallback (players that cannot race):
// the preferred DC.
func (p *ClientRace) ResolveDNS(v PolicyView, id topology.LDNSID, vid content.VideoID) topology.DataCenterID {
	return v.Preferred(id)
}

// ServeOrRedirect redirects on misses like the paper but never sheds
// hot-spots — the race already routed around busy servers.
func (p *ClientRace) ServeOrRedirect(v PolicyView, srv topology.ServerID, vid content.VideoID, id topology.LDNSID, home Home) Decision {
	dc := v.ServerDC(srv)
	if !v.HasVideo(dc, vid, home) {
		target := paperPickOrigin(v, id, vid, v.Origins(vid, home))
		return Decision{Redirected: true, Target: v.ServerForVideo(target, vid), Reason: ReasonMiss}
	}
	return Decision{}
}

// paperServeSide is the shared serve-or-redirect implementation for
// policies that only vary the DNS step.
var paperServeSide = DefaultPaperPolicy()
