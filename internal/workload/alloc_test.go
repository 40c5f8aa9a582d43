//go:build !race

package workload

import (
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/cdn"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// TestArrivalAllocs is the arrival path's allocation contract: with a
// no-op submit, stepping a generator's events on a warmed engine
// allocates nothing — neither an hourly batch, which draws its Poisson
// count and its arrival times, sorts them into the bucket's
// arrival-time buffer and queues the first arrival and the next batch,
// nor an arrival, which queues the next one, draws the session's
// client, video and resolution and submits it. A bucket's two events
// are its emitHour and arrive, bound once by Schedule; its arrival-time
// buffer is reused from hour to hour and grows only in an hour with
// more arrivals than any before; slices.Sort allocates nothing; and the
// warmed queue's backing array holds every pending event. The first
// simulated day runs before the measurement, so each subnet's RNG
// stream has built its register (stats' TestDrawAllocs) and each
// arrival-time buffer has held a peak hour.
func TestArrivalAllocs(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	gen, err := NewGenerator(w, 0, cat, 7*24*time.Hour, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	eng := &des.Engine{}
	noop := func() {}
	for i := 0; i < 1<<14; i++ {
		eng.Schedule(0, noop)
	}
	eng.Run()
	submitted := 0
	gen.Schedule(eng, func(cdn.Request) { submitted++ })
	eng.RunBefore(24 * time.Hour)

	// Each run steps up to and including the next arrival, so it
	// averages over arrivals, not over events: most hourly batches of
	// a small subnet draw no arrival at all.
	before := submitted
	nextArrival := func() {
		for n := submitted; submitted == n && eng.Step(); {
		}
	}
	if allocs := testing.AllocsPerRun(200, nextArrival); allocs != 0 {
		t.Errorf("stepping to an arrival allocates %.2f times, want 0", allocs)
	}
	if got := submitted - before; got != 201 {
		t.Fatalf("measured %d arrivals, want 201 (the queue ran dry)", got)
	}

	// AllocsPerRun truncates its average, so a cost paid by only some
	// arrivals would hide below one per run: an arrival queues the
	// next of its hour, but the batch queues the first, and a small
	// subnet's hour often holds one arrival or none. Each run here
	// steps through a whole simulated hour instead, every batch and
	// arrival in it.
	before = submitted
	nextHour := func() { eng.RunBefore(eng.Now() + time.Hour) }
	if allocs := testing.AllocsPerRun(48, nextHour); allocs != 0 {
		t.Errorf("stepping through an hour allocates %.2f times, want 0", allocs)
	}
	t.Logf("%d arrivals in the 49 hours stepped, over %d buckets", submitted-before, len(gen.buckets))
}
