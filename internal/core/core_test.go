package core

import (
	"testing"
	"testing/quick"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// testRig bundles a small world, catalog, placement and selector.
type testRig struct {
	w   *topology.World
	cat *content.Catalog
	pl  *Placement
	sel *Selector
}

func newRig(t testing.TB, selCfg Config) *testRig {
	t.Helper()
	w, err := topology.BuildPaperWorld(topology.PaperConfig{
		Scale:             0.001,
		ServersPerDCNA:    8,
		ServersPerDCEU:    6,
		ServersPerDCOther: 4,
		LegacyServers:     16,
		ThirdPartyServers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := content.NewCatalog(content.Config{
		N: 1000, ZipfExponent: 1, TailRank: 400, VOTDShare: 0.05, Days: 7,
		MedianDuration: content.DefaultConfig().MedianDuration,
		DurationSigma:  content.DefaultConfig().DurationSigma,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlacement(w, cat, OriginPolicy{CopiesPerVideo: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(w, pl, selCfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{w: w, cat: cat, pl: pl, sel: sel}
}

func (r *testRig) vp(name string) *topology.VantagePoint {
	return r.w.VantagePoints[r.w.VPIndex(name)]
}

// closestToMapReference is the pre-refactor map-based closestTo,
// kept as the single behavioural reference for both the rank-index
// parity test and the benchmark baseline.
func closestToMapReference(sel *Selector, id topology.LDNSID, candidates []topology.DataCenterID) topology.DataCenterID {
	if len(candidates) == 0 {
		return sel.prefByLDNS[id]
	}
	in := make(map[topology.DataCenterID]bool, len(candidates))
	for _, dc := range candidates {
		in[dc] = true
	}
	for _, dc := range sel.rankByLDNS[id] {
		if in[dc] {
			return dc
		}
	}
	return candidates[0]
}

func TestNewSelectorValidation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if _, err := NewSelector(r.w, r.pl, Config{MaxRedirects: 0}); err == nil {
		t.Error("MaxRedirects=0 must be rejected")
	}
	if _, err := NewSelector(r.w, r.pl, Config{MaxRedirects: 1, Policy: &PaperPolicy{SpillCandidates: 0}}); err == nil {
		t.Error("SpillCandidates=0 must be rejected")
	}
}

func TestPreferredMatchesRTTBest(t *testing.T) {
	r := newRig(t, DefaultConfig())
	for _, ldns := range r.w.LDNSes {
		pref := r.sel.Preferred(ldns.ID)
		if over, ok := r.w.PreferredOverrides[ldns.ID]; ok {
			if pref != over {
				t.Errorf("LDNS %s: preferred %d, want override %d", ldns.Name, pref, over)
			}
			continue
		}
		if pref != r.sel.RankedDCs(ldns.ID)[0] {
			t.Errorf("LDNS %s: preferred %d is not RTT-best", ldns.Name, pref)
		}
	}
}

func TestRankedDCsSortedByRTT(t *testing.T) {
	r := newRig(t, DefaultConfig())
	for _, ldns := range r.w.LDNSes {
		vp := r.w.VantagePoints[ldns.VantagePoint]
		ep := vp.Endpoint()
		ranked := r.sel.RankedDCs(ldns.ID)
		if len(ranked) != 33 {
			t.Fatalf("ranked DCs = %d, want 33", len(ranked))
		}
		for i := 1; i < len(ranked); i++ {
			a := r.w.Net.BaseRTT(ep, r.w.DC(ranked[i-1]).Endpoint())
			b := r.w.Net.BaseRTT(ep, r.w.DC(ranked[i]).Endpoint())
			if a > b {
				t.Fatalf("LDNS %s: rank order violated at %d", ldns.Name, i)
			}
		}
	}
}

func TestResolveDNSNoSpillWhenUnloaded(t *testing.T) {
	r := newRig(t, DefaultConfig())
	g := stats.NewRNG(1)
	for _, ldns := range r.w.LDNSes {
		pref := r.sel.Preferred(ldns.ID)
		for v := content.VideoID(0); v < 50; v++ {
			srv := r.sel.ResolveDNS(ldns.ID, v, g)
			if r.w.Server(srv).DC != pref {
				t.Fatalf("unloaded resolution left preferred DC")
			}
		}
	}
}

func TestResolveDNSSpillsUnderLoad(t *testing.T) {
	r := newRig(t, DefaultConfig())
	g := stats.NewRNG(2)
	eu2 := r.vp(topology.DatasetEU2)
	ldns := eu2.Subnets[0].LDNS
	pref := r.sel.Preferred(ldns)
	dc := r.w.DC(pref)
	if dc.DNSCapacity == 0 {
		t.Fatal("EU2 preferred must have bounded DNS capacity")
	}
	// Saturate the preferred DC to exactly its capacity.
	var held []topology.ServerID
	for i := 0; i < dc.DNSCapacity; i++ {
		srv := dc.Servers[i%len(dc.Servers)].ID
		r.sel.BeginFlow(srv)
		held = append(held, srv)
	}
	spilled, total := 0, 2000
	for i := 0; i < total; i++ {
		srv := r.sel.ResolveDNS(ldns, content.VideoID(i%300), g)
		if r.w.Server(srv).DC != pref {
			spilled++
		}
	}
	// At capacity, every resolution spills (the accepted concurrency
	// is pinned at capacity).
	if spilled != total {
		t.Errorf("spilled %d of %d at full capacity, want all", spilled, total)
	}
	for _, srv := range held {
		r.sel.EndFlow(srv)
	}
	// After release, resolutions return to the preferred DC.
	srv := r.sel.ResolveDNS(ldns, 7, g)
	if r.w.Server(srv).DC != pref {
		t.Error("resolution did not return to preferred after load release")
	}
}

func TestResolveDNSNoSpillWhenDisabled(t *testing.T) {
	cfg := DefaultConfig()
	pol := DefaultPaperPolicy()
	pol.DNSLoadBalancing = false
	cfg.Policy = pol
	r := newRig(t, cfg)
	g := stats.NewRNG(3)
	eu2 := r.vp(topology.DatasetEU2)
	ldns := eu2.Subnets[0].LDNS
	pref := r.sel.Preferred(ldns)
	dc := r.w.DC(pref)
	for i := 0; i < 5*dc.DNSCapacity; i++ {
		r.sel.BeginFlow(dc.Servers[i%len(dc.Servers)].ID)
	}
	for i := 0; i < 500; i++ {
		srv := r.sel.ResolveDNS(ldns, content.VideoID(i), g)
		if r.w.Server(srv).DC != pref {
			t.Fatal("spill happened with DNSLoadBalancing disabled")
		}
	}
}

func TestServerForVideoStableAndSpread(t *testing.T) {
	r := newRig(t, DefaultConfig())
	dc := r.sel.RankedDCs(0)[0]
	seen := make(map[topology.ServerID]bool)
	for v := content.VideoID(0); v < 200; v++ {
		s1 := r.sel.ServerForVideo(dc, v)
		s2 := r.sel.ServerForVideo(dc, v)
		if s1 != s2 {
			t.Fatal("video->server hash unstable")
		}
		if r.w.Server(s1).DC != dc {
			t.Fatal("hashed server outside DC")
		}
		seen[s1] = true
	}
	if len(seen) < len(r.w.DC(dc).Servers)/2 {
		t.Errorf("hash spread too narrow: %d servers hit", len(seen))
	}
}

func TestServeReplicatedVideoLocally(t *testing.T) {
	r := newRig(t, DefaultConfig())
	us := r.vp(topology.DatasetUSCampus)
	ldns := us.Subnets[0].LDNS
	pref := r.sel.Preferred(ldns)
	srv := r.sel.ServerForVideo(pref, 5) // rank 5: replicated
	d := r.sel.ServeOrRedirect(srv, 5, ldns, HomeOf(us), nil)
	if d.Redirected {
		t.Errorf("replicated video redirected: %+v", d)
	}
}

func TestTailVideoFirstAccessRedirectsThenCaches(t *testing.T) {
	r := newRig(t, DefaultConfig())
	us := r.vp(topology.DatasetUSCampus)
	ldns := us.Subnets[0].LDNS
	home := HomeOf(us)
	pref := r.sel.Preferred(ldns)

	// Find a tail video whose origins exclude the preferred DC.
	var v content.VideoID = -1
	for cand := content.VideoID(400); cand < 1000; cand++ {
		onPref := false
		for _, o := range r.pl.Origins(cand, home.Continent, home.ForeignProb, home.Weights) {
			if o == pref {
				onPref = true
			}
		}
		if !onPref {
			v = cand
			break
		}
	}
	if v < 0 {
		t.Fatal("no cold tail video found")
	}

	srv := r.sel.ServerForVideo(pref, v)
	d := r.sel.ServeOrRedirect(srv, v, ldns, home, nil)
	if !d.Redirected || d.Reason != ReasonMiss {
		t.Fatalf("first tail access: %+v, want miss redirect", d)
	}
	if r.w.Server(d.Target).DC == pref {
		t.Error("miss redirect target must be another DC")
	}
	// The target must hold the video.
	if !r.pl.Has(r.w.Server(d.Target).DC, v, home.Continent, home.ForeignProb, home.Weights) {
		t.Error("redirect target does not hold the video")
	}
	// Second access: served locally thanks to pull-through.
	d2 := r.sel.ServeOrRedirect(srv, v, ldns, home, nil)
	if d2.Redirected {
		t.Errorf("second tail access redirected: %+v", d2)
	}
	_, _, misses := r.sel.Counters()
	if misses != 1 {
		t.Errorf("miss counter = %d, want 1", misses)
	}
}

func TestHotspotRedirection(t *testing.T) {
	r := newRig(t, DefaultConfig())
	us := r.vp(topology.DatasetUSCampus)
	ldns := us.Subnets[0].LDNS
	pref := r.sel.Preferred(ldns)
	v := content.VideoID(3)
	srv := r.sel.ServerForVideo(pref, v)
	capacity := r.w.Server(srv).Capacity
	for i := 0; i < capacity; i++ {
		r.sel.BeginFlow(srv)
	}
	d := r.sel.ServeOrRedirect(srv, v, ldns, HomeOf(us), nil)
	if !d.Redirected || d.Reason != ReasonHotspot {
		t.Fatalf("saturated server answered %+v, want hotspot redirect", d)
	}
	if r.w.Server(d.Target).DC == pref {
		t.Error("hotspot target must be a non-preferred DC")
	}
	_, hotspots, _ := r.sel.Counters()
	if hotspots != 1 {
		t.Errorf("hotspot counter = %d", hotspots)
	}
}

func TestHotspotDisabled(t *testing.T) {
	cfg := DefaultConfig()
	pol := DefaultPaperPolicy()
	pol.HotspotRedirection = false
	cfg.Policy = pol
	r := newRig(t, cfg)
	us := r.vp(topology.DatasetUSCampus)
	ldns := us.Subnets[0].LDNS
	pref := r.sel.Preferred(ldns)
	v := content.VideoID(3)
	srv := r.sel.ServerForVideo(pref, v)
	for i := 0; i < r.w.Server(srv).Capacity+5; i++ {
		r.sel.BeginFlow(srv)
	}
	if d := r.sel.ServeOrRedirect(srv, v, ldns, HomeOf(us), nil); d.Redirected {
		t.Errorf("redirect with hotspot disabled: %+v", d)
	}
}

func TestPlacementReplicatedEverywhere(t *testing.T) {
	r := newRig(t, DefaultConfig())
	for _, dc := range r.w.GoogleDCs() {
		if !r.pl.Has(dc, 10, geo.Europe, 0, nil) {
			t.Fatalf("replicated video missing at DC %d", dc)
		}
	}
}

func TestPlacementOriginsDeterministic(t *testing.T) {
	r := newRig(t, DefaultConfig())
	us := r.vp(topology.DatasetUSCampus)
	home := HomeOf(us)
	for v := content.VideoID(400); v < 450; v++ {
		o1 := r.pl.Origins(v, home.Continent, home.ForeignProb, home.Weights)
		o2 := r.pl.Origins(v, home.Continent, home.ForeignProb, home.Weights)
		if len(o1) != 2 || len(o2) != 2 || o1[0] != o2[0] || o1[1] != o2[1] {
			t.Fatalf("origins not deterministic: %v vs %v", o1, o2)
		}
	}
}

func TestPlacementForeignFraction(t *testing.T) {
	r := newRig(t, DefaultConfig())
	weights := map[geo.Continent]float64{geo.NorthAmerica: 1}
	foreign := 0
	const n = 4000
	for v := content.VideoID(0); v < n; v++ {
		if r.pl.OriginContinent(v, geo.Europe, 0.25, weights) != geo.Europe {
			foreign++
		}
	}
	frac := float64(foreign) / n
	if frac < 0.18 || frac > 0.32 {
		t.Errorf("foreign origin fraction = %.3f, want ~0.25", frac)
	}
	// Zero probability means never foreign.
	for v := content.VideoID(0); v < 500; v++ {
		if r.pl.OriginContinent(v, geo.Europe, 0, weights) != geo.Europe {
			t.Fatal("foreign origin with zero probability")
		}
	}
}

func TestPlacementPullIdempotent(t *testing.T) {
	r := newRig(t, DefaultConfig())
	dc := r.w.GoogleDCs()[0]
	r.pl.Pull(dc, 500)
	r.pl.Pull(dc, 500)
	if r.pl.PulledCount() != 1 {
		t.Errorf("PulledCount = %d, want 1", r.pl.PulledCount())
	}
}

// TestForcedOriginsCopyDiscipline pins the aliasing contract around
// the forced-origin map: ForceOrigins must not retain the caller's
// slice, and Origins must not hand out the stored one.
func TestForcedOriginsCopyDiscipline(t *testing.T) {
	r := newRig(t, DefaultConfig())
	us := r.vp(topology.DatasetUSCampus)
	home := HomeOf(us)
	dcs := r.w.GoogleDCs()
	if len(dcs) < 2 {
		t.Fatalf("need at least 2 DCs, have %d", len(dcs))
	}
	v := content.VideoID(700) // tail: rig TailRank is 400
	pinned := []topology.DataCenterID{dcs[0]}
	r.pl.ForceOrigins(v, pinned)

	pinned[0] = dcs[1] // caller scribbles on its slice after pinning
	got := r.pl.Origins(v, home.Continent, home.ForeignProb, home.Weights)
	if len(got) != 1 || got[0] != dcs[0] {
		t.Fatalf("pinned origin corrupted by caller-side mutation: got %v, want [%d]", got, dcs[0])
	}

	got[0] = dcs[1] // reader scribbles on the returned slice
	again := r.pl.Origins(v, home.Continent, home.ForeignProb, home.Weights)
	if len(again) != 1 || again[0] != dcs[0] {
		t.Fatalf("pinned origin corrupted by reader-side mutation: got %v, want [%d]", again, dcs[0])
	}
}

func TestNewPlacementValidation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if _, err := NewPlacement(r.w, r.cat, OriginPolicy{CopiesPerVideo: 0}); err == nil {
		t.Error("CopiesPerVideo=0 must be rejected")
	}
}

func TestLoadTrackerBalance(t *testing.T) {
	lt := NewLoadTracker("test", 3)
	lt.Acquire(0)
	lt.Acquire(0)
	lt.Acquire(2)
	if lt.Load(0) != 2 || lt.Load(2) != 1 || lt.Total() != 3 {
		t.Errorf("loads wrong: %d %d %d", lt.Load(0), lt.Load(2), lt.Total())
	}
	lt.Release(0)
	if lt.Load(0) != 1 {
		t.Error("release failed")
	}
}

func TestLoadTrackerPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative load must panic")
		}
	}()
	NewLoadTracker("test", 1).Release(0)
}

// TestLiveTrackerPanicsNegative pins the balance check on a counter
// that was in use: draining it to zero is legal, one more Release is not.
func TestLiveTrackerPanicsNegative(t *testing.T) {
	lt := NewLoadTracker("t", 1)
	lt.Acquire(0)
	lt.Release(0)
	defer func() {
		if recover() == nil {
			t.Error("live tracker tolerated a negative count")
		}
	}()
	lt.Release(0)
}

func TestLoadConservationProperty(t *testing.T) {
	// Any balanced sequence of Begin/End leaves all loads at zero.
	r := newRig(t, DefaultConfig())
	f := func(ops []uint16) bool {
		var open []topology.ServerID
		for _, op := range ops {
			srv := topology.ServerID(int(op) % len(r.w.Servers))
			r.sel.BeginFlow(srv)
			open = append(open, srv)
		}
		for _, srv := range open {
			r.sel.EndFlow(srv)
		}
		for _, s := range r.w.Servers {
			if r.sel.ServerLoad(s.ID) != 0 {
				return false
			}
		}
		for _, dc := range r.w.DataCenters {
			if r.sel.DCLoad(dc.ID) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRedirectReasonString(t *testing.T) {
	if ReasonNone.String() != "none" || ReasonMiss.String() != "miss" ||
		ReasonHotspot.String() != "hotspot" || RedirectReason(9).String() != "invalid" {
		t.Error("RedirectReason.String broken")
	}
}

func TestMissRedirectTargetsOrigins(t *testing.T) {
	r := newRig(t, DefaultConfig())
	us := r.vp(topology.DatasetUSCampus)
	ldns := us.Subnets[0].LDNS
	home := HomeOf(us)
	pref := r.sel.Preferred(ldns)

	total, closest := 0, 0
	for cand := content.VideoID(400); cand < 600; cand++ {
		origins := r.pl.Origins(cand, home.Continent, home.ForeignProb, home.Weights)
		onPref := false
		for _, o := range origins {
			if o == pref {
				onPref = true
			}
		}
		if onPref {
			continue
		}
		srv := r.sel.ServerForVideo(pref, cand)
		d := r.sel.ServeOrRedirect(srv, cand, ldns, home, nil)
		if !d.Redirected {
			t.Fatal("expected miss redirect")
		}
		targetDC := r.w.Server(d.Target).DC
		// The target must be one of the video's origins.
		isOrigin := false
		for _, o := range origins {
			if o == targetDC {
				isOrigin = true
			}
		}
		if !isOrigin {
			t.Fatalf("video %d: redirect target DC %d is not an origin %v", cand, targetDC, origins)
		}
		// Track how often the closest origin wins (should dominate:
		// ~75% by construction).
		bestRank, targetRank := -1, -1
		for rank, dc := range r.sel.RankedDCs(ldns) {
			for _, o := range origins {
				if dc == o && bestRank < 0 {
					bestRank = rank
				}
			}
			if dc == targetDC {
				targetRank = rank
			}
		}
		total++
		if targetRank == bestRank {
			closest++
		}
	}
	if total == 0 {
		t.Fatal("no cold videos exercised")
	}
	if frac := float64(closest) / float64(total); frac < 0.6 || frac > 0.95 {
		t.Errorf("closest-origin fraction = %.2f, want ~0.75", frac)
	}
}
