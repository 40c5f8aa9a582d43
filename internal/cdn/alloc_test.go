package cdn

import (
	"os"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// TestQuirkPoolAllocs is the quirk sessions' allocation contract: the
// legacy/third-party pool a session draws from is read from the table
// NewSimulator built, so looking it up allocates nothing. Rebuilding
// it from World.ServersOfClass on every quirk session was the
// simulator's largest allocation site. Gated behind PERF_ASSERT=1 like
// the other alloc contracts; CI's perfgate job sets it.
func TestQuirkPoolAllocs(t *testing.T) {
	if os.Getenv("PERF_ASSERT") != "1" {
		t.Skip("set PERF_ASSERT=1 to assert quirk pool allocation counts")
	}
	r := newRig(t, DefaultConfig())
	var pool []*topology.Server
	for vp := range r.w.VantagePoints {
		for _, class := range []topology.ServerClass{topology.ClassLegacyEU, topology.ClassThirdParty} {
			allocs := testing.AllocsPerRun(200, func() { pool = r.sim.quirkPool(vp, class) })
			if allocs != 0 {
				t.Errorf("VP %d class %v: pool lookup allocates %.1f times, want 0", vp, class, allocs)
			}
			if len(pool) == 0 {
				t.Errorf("VP %d class %v: empty pool", vp, class)
			}
		}
	}
}
