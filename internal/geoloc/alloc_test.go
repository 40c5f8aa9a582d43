//go:build !race

package geoloc

import (
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/netmodel"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// TestLocateAllocs pins Locate's allocation budget on the 20-landmark
// fixture: none. The disc keys and the pruned discs live in a pooled
// working set, slices.SortFunc sorts the keys in place, and the grid
// search, gridRegion over inAll, allocates nothing; it is also
// measured on its own. Race builds skip this file: sync.Pool drops
// items under -race, so the pooled working set is reallocated at
// random.
func TestLocateAllocs(t *testing.T) {
	lms := testLandmarks()
	m := netmodel.New(netmodel.DefaultConfig())
	g := stats.NewRNG(2)
	cbg, err := Calibrate(lms, modelRTT(lms, m, g))
	if err != nil {
		t.Fatal(err)
	}
	ep := netmodel.Endpoint{ID: "target-brussels", Loc: geo.Brussels.Point, Access: netmodel.AccessDataCenter}
	rtts := make([]time.Duration, len(lms))
	for i, lm := range lms {
		rtts[i] = m.MinRTT(netmodel.Endpoint{ID: "lm-" + lm.Name, Loc: lm.Loc, Access: netmodel.AccessBackbone}, ep, 5, g)
	}

	var discs []disc
	for _, c := range []struct {
		city   geo.City
		radius float64
	}{{geo.Brussels, 300}, {geo.Paris, 400}, {geo.London, 500}} {
		d := disc{center: c.city.Point, radius: c.radius, u: unitVector(c.city.Point)}
		d.setSlack(1)
		discs = append(discs, d)
	}
	if _, ok := gridRegion(discs, discs[0].center, discs[0].limit); !ok {
		t.Fatal("the Brussels/Paris/London discs do not intersect")
	}

	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"Locate", 0, func() { cbg.Locate(rtts) }},
		{"gridRegion", 0, func() { gridRegion(discs, discs[0].center, discs[0].limit) }},
	} {
		allocs := testing.AllocsPerRun(200, c.run)
		t.Logf("%s: %.1f allocs/op", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s allocates %.1f times per call, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
