//go:build !race

package probe

import (
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// TestLandmarkSweepAllocs pins the landmark sweep's allocation budget:
// one measure call over all 215 landmarks allocates the returned slice
// and nothing else. The landmark endpoints and route lengths come from
// the sweep's tables, and the path inflation hashes both IDs without
// copying them. The stream is reused, so the fork's RNG and its
// register (TestForkAllocs' budget) are not counted here. RTTs adds
// them and three strings for the endpoint ID and the fork label: 6
// allocations in all on go1.24.0.
func TestLandmarkSweepAllocs(t *testing.T) {
	w := testWorld(t)
	p := New(w, stats.NewRNG(9))
	sweep := p.LandmarkSweep()
	srv := w.Servers[0]
	ep := p.serverEndpoint(srv)
	g := stats.NewRNG(10)
	allocs := testing.AllocsPerRun(50, func() { sweep.measure(ep, srv.DC, 3, g) })
	t.Logf("measure: %.1f allocs/op over %d landmarks", allocs, len(w.Landmarks))
	if allocs > 1 {
		t.Errorf("measure allocates %.1f times per sweep, budget 1 (the returned slice)", allocs)
	}
}
