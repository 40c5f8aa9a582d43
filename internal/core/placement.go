// Package core implements the paper's primary contribution in
// executable form: the YouTube CDN server-selection machinery that the
// measurement study reverse-engineers. It has four cooperating parts,
// one per cause of non-preferred accesses identified in §VII:
//
//   - a preferred-data-center DNS map keyed by local DNS server, with
//     per-LDNS assignment-policy overrides (§VII-B, Fig 12);
//   - adaptive DNS-level load balancing that spills resolutions away
//     from an overloaded preferred data center (§VII-A, Fig 11);
//   - within-data-center video→server consistent hashing plus
//     hot-spot application-layer redirection when a server saturates
//     (§VII-C, Figs 14-16);
//   - popularity-tiered content placement with pull-through caching,
//     so the first access to an unpopular video is redirected to an
//     origin copy (§VII-C, Figs 13, 17, 18).
package core

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// FNV-1a 64-bit parameters (hash/fnv's, inlined below).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashU64 hashes a label plus integers into a 64-bit value. The
// splitmix64 finalizer matters: two FNV hashes of the same small
// integers under different labels stay correlated in their low bits
// (FNV is affine mod 2^k), which would make residues used for
// different decisions — origin-DC choice mod 14, in-DC server choice
// mod 56 — structurally dependent. The finalizer breaks that.
//
// The FNV-1a core is written out by hand, byte-identical to
// hash/fnv.New64a: the stdlib constructor returns a hash.Hash64
// interface whose receiver escapes, one heap allocation per call on
// the selection path that runs per decision.
//
//perf:hot
//perf:noalloc
func hashU64(label string, vals ...int64) uint64 {
	h := fnvOffset64
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime64
	}
	for _, v := range vals {
		u := uint64(v)
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(u >> s))
			h *= fnvPrime64
		}
	}
	x := h
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to [0,1).
//
//perf:inline
//perf:noalloc
func unit(h uint64) float64 { return float64(h%1_000_000_000) / 1_000_000_000 }

// OriginPolicy controls where unreplicated (tail) videos live.
type OriginPolicy struct {
	// CopiesPerVideo is the number of origin data centers holding a
	// tail video.
	CopiesPerVideo int
}

// Placement tracks which Google data centers hold which videos.
// Replicated videos (below the catalog's tail rank) are everywhere;
// tail videos start at CopiesPerVideo origin DCs and spread by
// pull-through as they get requested. Placement is safe for concurrent
// use: the mutable state (pull-through set, forced origins, the pull
// counter) sits behind a read/write mutex, so goroutines sharing one
// placement can look up and pull videos concurrently.
type Placement struct {
	catalog *content.Catalog
	policy  OriginPolicy
	// dcsByContinent indexes Google-class DCs for origin selection.
	dcsByContinent map[geo.Continent][]topology.DataCenterID
	continents     []geo.Continent // deterministic iteration order

	// mu guards everything that mutates after construction; the
	// guarded fields below carry machine-checked annotations (see
	// internal/lint's lockguard analyzer).
	mu sync.RWMutex
	// pulled records (dc, video) pairs added by pull-through.
	// guarded by mu
	pulled map[pullKey]struct{}
	// forced overrides the hashed origin set for specific videos
	// (controlled experiments: a fresh upload lands where the ingest
	// system put it).
	// guarded by mu
	forced map[content.VideoID][]topology.DataCenterID
}

type pullKey struct {
	dc topology.DataCenterID
	v  content.VideoID
}

// NewPlacement builds the placement layer over a world and catalog.
func NewPlacement(w *topology.World, cat *content.Catalog, policy OriginPolicy) (*Placement, error) {
	if policy.CopiesPerVideo < 1 {
		return nil, fmt.Errorf("core: CopiesPerVideo must be >= 1, got %d", policy.CopiesPerVideo)
	}
	p := &Placement{
		catalog:        cat,
		policy:         policy,
		dcsByContinent: make(map[geo.Continent][]topology.DataCenterID),
		pulled:         make(map[pullKey]struct{}),
	}
	for _, id := range w.GoogleDCs() {
		cont := w.DC(id).City.Continent
		p.dcsByContinent[cont] = append(p.dcsByContinent[cont], id)
	}
	for cont := range p.dcsByContinent {
		p.continents = append(p.continents, cont)
	}
	sort.Slice(p.continents, func(i, j int) bool { return p.continents[i] < p.continents[j] })
	return p, nil
}

// OriginContinent returns the continent hosting the origin copies of a
// tail video as requested from a network homed on `home`. With
// probability foreignProb (deterministic per video and home) the
// origin is abroad, distributed according to weights.
func (p *Placement) OriginContinent(v content.VideoID, home geo.Continent, foreignProb float64, weights map[geo.Continent]float64) geo.Continent {
	u := unit(hashU64("origin-cont", int64(v), int64(home)))
	if u >= foreignProb || len(weights) == 0 {
		return home
	}
	// Rescale u into [0,1) over the foreign draw and walk the weights
	// in deterministic continent order. The normalizing sum runs over
	// the sorted keys too: float addition is not associative, so
	// summing in map order would make the total — and potentially the
	// chosen continent — depend on Go's randomized iteration order.
	u /= foreignProb
	ordered := make([]geo.Continent, 0, len(weights))
	for cont := range weights {
		ordered = append(ordered, cont)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	total := 0.0
	for _, cont := range ordered {
		total += weights[cont]
	}
	if total <= 0 {
		return home
	}
	acc := 0.0
	for _, cont := range ordered {
		acc += weights[cont] / total
		if u < acc {
			if len(p.dcsByContinent[cont]) > 0 {
				return cont
			}
			return home
		}
	}
	return home
}

// Origins returns the origin data centers of a tail video for a
// requester homed on `home`. The result is deterministic. For
// replicated videos it returns nil (they are everywhere). The returned
// slice is freshly allocated and the caller's to keep or mutate.
func (p *Placement) Origins(v content.VideoID, home geo.Continent, foreignProb float64, weights map[geo.Continent]float64) []topology.DataCenterID {
	if !p.catalog.IsTail(v) {
		return nil
	}
	p.mu.RLock()
	dcs, ok := p.forced[v]
	p.mu.RUnlock()
	if ok {
		return append([]topology.DataCenterID(nil), dcs...)
	}
	cont := p.OriginContinent(v, home, foreignProb, weights)
	pool := p.dcsByContinent[cont]
	if len(pool) == 0 {
		// Fall back to any continent with DCs.
		for _, c := range p.continents {
			if len(p.dcsByContinent[c]) > 0 {
				pool = p.dcsByContinent[c]
				break
			}
		}
	}
	n := p.policy.CopiesPerVideo
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]topology.DataCenterID, 0, n)
	start := int(hashU64("origin-dc", int64(v), int64(cont)) % uint64(len(pool)))
	for i := 0; i < n; i++ {
		out = append(out, pool[(start+i)%len(pool)])
	}
	return out
}

// Has reports whether dc currently holds video v for a requester homed
// on `home` (origin parameters as in Origins).
func (p *Placement) Has(dc topology.DataCenterID, v content.VideoID, home geo.Continent, foreignProb float64, weights map[geo.Continent]float64) bool {
	if !p.catalog.IsTail(v) {
		return true
	}
	p.mu.RLock()
	_, ok := p.pulled[pullKey{dc, v}]
	p.mu.RUnlock()
	if ok {
		return true
	}
	for _, o := range p.Origins(v, home, foreignProb, weights) {
		if o == dc {
			return true
		}
	}
	return false
}

// Pull records that dc fetched v (pull-through caching). Subsequent
// Has calls return true for (dc, v).
func (p *Placement) Pull(dc topology.DataCenterID, v content.VideoID) {
	k := pullKey{dc, v}
	p.mu.Lock()
	p.pulled[k] = struct{}{}
	p.mu.Unlock()
}

// PulledCount returns the number of distinct (dc, video) pull-through
// entries.
func (p *Placement) PulledCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pulled)
}

// ForceOrigins pins a tail video's origin set, overriding the hashed
// assignment. Used by controlled experiments that upload a fresh video
// to a known ingest location (paper §VII-C). The slice is copied, so
// later caller-side mutations do not leak into the placement.
func (p *Placement) ForceOrigins(v content.VideoID, dcs []topology.DataCenterID) {
	p.mu.Lock()
	if p.forced == nil {
		p.forced = make(map[content.VideoID][]topology.DataCenterID)
	}
	p.forced[v] = append([]topology.DataCenterID(nil), dcs...)
	p.mu.Unlock()
}
