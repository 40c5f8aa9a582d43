package workload

import (
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/cdn"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// scheduleUpfront is the generator's former schedule, kept as the
// oracle of the chained one: every hourly batch of every bucket is
// queued at t = 0, and each batch queues its whole hour of arrivals at
// once, in draw order. It draws exactly what Schedule draws.
func scheduleUpfront(gen *Generator, eng *des.Engine, submit func(cdn.Request)) {
	for i := range gen.buckets {
		b := &gen.buckets[i]
		arrive := func() { submit(gen.request(b, eng.Now())) }
		for start := time.Duration(0); start < gen.span; start += time.Hour {
			start := start
			eng.Schedule(start, func() {
				width := time.Hour
				if start+width > gen.span {
					width = gen.span - start
				}
				n := b.g.Poisson(gen.ratePerHour(start+width/2) * b.share * width.Hours())
				for i := 0; i < n; i++ {
					eng.Schedule(start+time.Duration(b.g.Float64()*float64(width)), arrive)
				}
			})
		}
	}
}

// arrival is one submitted session and the engine time it started at.
type arrival struct {
	at  time.Duration
	req cdn.Request
}

// wireGenerators builds one generator per vantage point over cat, each
// on its own "workload-<vp>" fork of seed as a study does, and hands
// them to install in VP order. It returns the total bucket count.
func wireGenerators(t *testing.T, w *topology.World, cat *content.Catalog, span time.Duration, seed int64,
	install func(*Generator)) int {
	t.Helper()
	root := stats.NewRNG(seed)
	buckets := 0
	for i, vp := range w.VantagePoints {
		gen, err := NewGenerator(w, i, cat, span, root.Fork("workload-"+vp.Name))
		if err != nil {
			t.Fatal(err)
		}
		install(gen)
		buckets += len(gen.buckets)
	}
	return buckets
}

// runMaxDepth steps eng dry and returns the number of events it ran
// and the largest Pending() seen, counting the queue before the first
// step.
func runMaxDepth(eng *des.Engine) (events, maxDepth int) {
	maxDepth = eng.Pending()
	for eng.Step() {
		events++
		if d := eng.Pending(); d > maxDepth {
			maxDepth = d
		}
	}
	return events, maxDepth
}

// TestChainedArrivalsMatchUpfrontSchedule runs every vantage point's
// generator on one engine, chained and with the former upfront
// schedule, over a span that ends mid-hour. The sessions must be
// submitted in the same order at the same times with the same draws,
// after the same number of events. The chained queue holds at most two
// events per bucket, its next batch and its next arrival; the upfront
// one holds every batch of the span at t = 0.
func TestChainedArrivalsMatchUpfrontSchedule(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	span := 2*24*time.Hour + 30*time.Minute
	run := func(install func(*Generator, *des.Engine, func(cdn.Request))) (got []arrival, events, maxDepth, buckets int) {
		eng := &des.Engine{}
		submit := func(req cdn.Request) { got = append(got, arrival{at: eng.Now(), req: req}) }
		buckets = wireGenerators(t, w, cat, span, 8, func(gen *Generator) { install(gen, eng, submit) })
		events, maxDepth = runMaxDepth(eng)
		return got, events, maxDepth, buckets
	}
	chained, chainedEvents, chainedDepth, buckets := run((*Generator).Schedule)
	upfront, upfrontEvents, upfrontDepth, _ := run(scheduleUpfront)

	if len(chained) == 0 || len(chained) != len(upfront) {
		t.Fatalf("chained schedule submitted %d sessions, upfront %d", len(chained), len(upfront))
	}
	for i := range chained {
		if chained[i] != upfront[i] {
			t.Fatalf("session %d: chained %+v, upfront %+v", i, chained[i], upfront[i])
		}
	}
	if chainedEvents != upfrontEvents {
		t.Errorf("chained schedule ran %d events, upfront %d", chainedEvents, upfrontEvents)
	}
	if chainedDepth > 2*buckets {
		t.Errorf("chained queue reached %d events, want at most 2 per bucket (%d)", chainedDepth, 2*buckets)
	}
	t.Logf("%d sessions, %d events; largest queue %d chained, %d upfront (%d buckets)",
		len(chained), chainedEvents, chainedDepth, upfrontDepth, buckets)
}

// TestStudyQueueStaysShallow steps one small study's engine, with
// sessions run by a cdn.Simulator as a study wires them, and bounds the
// largest queue: two generator events per bucket plus 32 for the video
// flows in flight and the pending follow-ups, of which there are at
// most 15 here. The former upfront schedule queued all 16 buckets × 48
// hourly batches at t = 0.
func TestStudyQueueStaysShallow(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	pl, err := core.NewPlacement(w, cat, core.OriginPolicy{CopiesPerVideo: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewSelector(w, pl, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	span := 2 * 24 * time.Hour
	eng := &des.Engine{}
	sim, err := cdn.NewSimulator(w, cat, sel, eng, capture.NewMemSink(), cdn.DefaultConfig(), stats.NewRNG(11), span)
	if err != nil {
		t.Fatal(err)
	}
	buckets := wireGenerators(t, w, cat, span, 11, func(gen *Generator) { gen.Schedule(eng, sim.SubmitSession) })
	events, maxDepth := runMaxDepth(eng)
	if sim.Flows() == 0 {
		t.Fatal("the study emitted no flow")
	}
	if bound := 2*buckets + 32; maxDepth > bound {
		t.Errorf("the queue reached %d events, bound %d", maxDepth, bound)
	}
	t.Logf("%d events, %d sessions, %d flows; largest queue %d (%d buckets)", events, sim.Sessions(), sim.Flows(), maxDepth, buckets)
}
