//go:build !race

package core

import (
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

var (
	sinkDC        topology.DataCenterID
	sinkContinent geo.Continent
)

// TestSelectionDecisionAllocs pins the zero-allocation contract of the
// selection engine's per-request paths, the ones the simulator runs
// millions of times. None of them allocates:
//   - a DNS resolution plus a serve for a replicated video on an
//     unloaded world: hashU64, serverFor, sheds and LoadTracker.Load;
//   - a hotspot redirect away from a server at capacity: sheds, then
//     refuses for each DC hotspotTarget tries, then serverFor;
//   - a video flow's BeginFlow and EndFlow: LoadTracker.Acquire and
//     Release;
//   - closestTo over a tail video's origins, the miss redirect's pick;
//   - OriginContinent for a tail video that stays home: unit over
//     hashU64.
//
// The spill and miss decisions do allocate (candidate and origin
// slices) and are exercised elsewhere.
func TestSelectionDecisionAllocs(t *testing.T) {
	r := newRig(t, DefaultConfig())
	g := stats.NewRNG(7)
	ldns := r.w.LDNSes[0]
	home := HomeOf(r.w.VantagePoints[ldns.VantagePoint])
	const vid = content.VideoID(3)    // replicated rank: everywhere, no miss path
	const tail = content.VideoID(900) // past the rig's TailRank of 400
	srv := r.sel.ResolveDNS(ldns.ID, vid, g)
	origins := r.pl.Origins(tail, home.Continent, home.ForeignProb, home.Weights)
	if len(origins) == 0 {
		t.Fatalf("tail video %d has no origins", tail)
	}

	// A second rig whose hashed server for vid sits at capacity.
	hot := newRig(t, DefaultConfig())
	hotSrv := hot.sel.ResolveDNS(ldns.ID, vid, g)
	for i := 0; i < hot.w.Server(hotSrv).Capacity; i++ {
		hot.sel.BeginFlow(hotSrv)
	}

	for _, c := range []struct {
		name string
		run  func()
	}{
		{"resolve and serve", func() {
			s := r.sel.ResolveDNS(ldns.ID, vid, g)
			if d := r.sel.ServeOrRedirect(s, vid, ldns.ID, home, g); d.Redirected {
				t.Fatalf("replicated video redirected on an unloaded world: %+v", d)
			}
		}},
		{"hotspot redirect", func() {
			if d := hot.sel.ServeOrRedirect(hotSrv, vid, ldns.ID, home, g); d.Reason != ReasonHotspot {
				t.Fatalf("server at capacity did not shed: %+v", d)
			}
		}},
		{"begin and end a flow", func() {
			r.sel.BeginFlow(srv)
			r.sel.EndFlow(srv)
		}},
		{"closestTo", func() { sinkDC = r.sel.closestTo(ldns.ID, origins) }},
		{"OriginContinent", func() {
			sinkContinent = r.pl.OriginContinent(tail, home.Continent, 0, home.Weights)
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, c.run); allocs != 0 {
			t.Errorf("%s allocates %.1f times, want 0", c.name, allocs)
		}
	}
}
