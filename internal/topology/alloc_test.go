//go:build !race

package topology

import (
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/netmodel"
)

var sinkEndpoint netmodel.Endpoint

// TestEndpointAllocs is the DC endpoint's allocation contract: on a
// built world, Endpoint returns the cached value BuildPaperWorld
// sealed, so the selector's RTT rankings, which call it inside sort
// comparisons, allocate nothing for it. Only a hand-assembled DC
// renders its ID string, once per call.
func TestEndpointAllocs(t *testing.T) {
	w := buildTestWorld(t)
	dc := w.DataCenters[0]
	if allocs := testing.AllocsPerRun(1000, func() { sinkEndpoint = dc.Endpoint() }); allocs != 0 {
		t.Errorf("Endpoint of a built world's DC allocates %.1f times, want 0", allocs)
	}
}
