// Package workload generates the request streams of the five monitored
// networks: an inhomogeneous Poisson arrival process with a diurnal
// profile per vantage point, subnet/client selection, and video and
// resolution sampling from the shared catalog.
//
// Arrivals decompose per subnet: a vantage point's Poisson process is
// thinned into one independent process per subnet (rate = VP rate ×
// subnet weight), each drawing from its own forked RNG stream
// ("subnet/<j>" under the VP's workload parent). The union of the
// per-subnet processes is distributed exactly like the undecomposed
// VP process. Each subnet's draws depend only on its own stream, and
// these streams fix the draw sequence of every pinned trace.
package workload

import (
	"fmt"
	"math"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/cdn"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// DiurnalWeight returns the relative demand at simulated time t for a
// profile with the given peak hour and night/peak floor: a raised
// cosine over the 24-hour day. The mean over a day is
// minFrac + (1-minFrac)/2.
func DiurnalWeight(t time.Duration, peakHour, minFrac float64) float64 {
	h := math.Mod(t.Hours(), 24)
	bump := (1 + math.Cos(2*math.Pi*(h-peakHour)/24)) / 2
	return minFrac + (1-minFrac)*bump
}

// bucket is one subnet's independent arrival stream.
type bucket struct {
	// subnet indexes the covered subnet in VantagePoint.Subnets.
	subnet int
	// g is the subnet's own stream: a "subnet/<j>" fork of the VP's
	// workload parent.
	g *stats.RNG
	// share is the subnet's fraction of the VP's session volume.
	share float64
	// clients is the subnet's client-pool size.
	clients int
}

// Generator produces the session stream of one vantage point over a
// capture window.
type Generator struct {
	vpIndex int
	vp      *topology.VantagePoint
	cat     *content.Catalog
	span    time.Duration
	buckets []bucket

	// Optional instruments (see Instrument); nil when metrics are off.
	// The counted quantities (arrival draws, hour batches) fall out of
	// draws the generator makes regardless, so recording them is
	// zero-perturbation.
	arrivals *obs.Counter
	batches  *obs.Counter
}

// Instrument publishes the generator's progress into reg:
// "sim.workload.arrivals" (sessions scheduled) and
// "sim.workload.hour_batches" (per-subnet hour batches emitted).
// Generators instrumented into the same registry share the counters,
// so the values are run-wide totals. Call before Schedule.
func (gen *Generator) Instrument(reg *obs.Registry) {
	gen.arrivals = reg.Counter("sim.workload.arrivals")
	gen.batches = reg.Counter("sim.workload.hour_batches")
}

// NewGenerator builds a generator covering every subnet of vantage
// point vpIndex over [0, span). g is the VP's workload parent stream;
// the generator never draws from it directly — it forks one
// "subnet/<j>" child per subnet.
func NewGenerator(w *topology.World, vpIndex int, cat *content.Catalog, span time.Duration, g *stats.RNG) (*Generator, error) {
	if vpIndex < 0 || vpIndex >= len(w.VantagePoints) {
		return nil, fmt.Errorf("workload: vantage point index %d out of range", vpIndex)
	}
	if span <= 0 {
		return nil, fmt.Errorf("workload: span must be positive, got %v", span)
	}
	vp := w.VantagePoints[vpIndex]
	gen := &Generator{
		vpIndex: vpIndex,
		vp:      vp,
		cat:     cat,
		span:    span,
	}
	for j, sn := range vp.Subnets {
		n := int(float64(vp.NumClients) * sn.Weight)
		if n < 1 {
			n = 1
		}
		gen.buckets = append(gen.buckets, bucket{
			subnet:  j,
			g:       g.ForkIndexed("subnet", j),
			share:   sn.Weight,
			clients: n,
		})
	}
	return gen, nil
}

// TotalSessions returns the VP-level expected session count over the
// window, scaled from the VP's weekly target; the bucket shares split
// it between the subnets.
func (gen *Generator) TotalSessions() float64 {
	return float64(gen.vp.WeeklySessions) * gen.span.Hours() / (7 * 24)
}

// ratePerHour returns the expected VP-level arrival rate at time t.
func (gen *Generator) ratePerHour(t time.Duration) float64 {
	w := DiurnalWeight(t, gen.vp.DiurnalPeakHour, gen.vp.DiurnalMinFrac)
	meanW := gen.vp.DiurnalMinFrac + (1-gen.vp.DiurnalMinFrac)/2
	return gen.TotalSessions() / gen.span.Hours() * w / meanW
}

// sampleClient draws a client address within the bucket's subnet.
func (gen *Generator) sampleClient(b *bucket) ipnet.Addr {
	sn := gen.vp.Subnets[b.subnet]
	idx := 1 + b.g.Intn(b.clients)
	addr, err := sn.Prefix.Nth(idx % (sn.Prefix.Size() - 1))
	if err != nil {
		// Subnet prefixes are /18s and pools ≤ ~10k clients, so this
		// cannot happen with a validated world.
		panic(fmt.Sprintf("workload: client allocation: %v", err))
	}
	return addr
}

// request assembles one session request at time t for a bucket.
func (gen *Generator) request(b *bucket, t time.Duration) cdn.Request {
	return cdn.Request{
		VP:        gen.vpIndex,
		SubnetIdx: b.subnet,
		Subnet:    gen.vp.Subnets[b.subnet],
		Client:    gen.sampleClient(b),
		Video:     gen.cat.Sample(b.g, t),
		Res:       gen.cat.SampleResolution(b.g),
	}
}

// Schedule installs hourly batch events on the engine, one per covered
// subnet per hour; each batch draws its hour's Poisson arrival count
// from the subnet's own stream and schedules the individual sessions
// at uniform offsets. submit is invoked inside engine events.
func (gen *Generator) Schedule(eng *des.Engine, submit func(cdn.Request)) {
	hours := int(gen.span / time.Hour)
	if gen.span%time.Hour != 0 {
		hours++
	}
	for i := range gen.buckets {
		b := &gen.buckets[i]
		for h := 0; h < hours; h++ {
			at := time.Duration(h) * time.Hour
			eng.Schedule(at, func() {
				gen.emitHour(eng, b, at, submit)
			})
		}
	}
}

// emitHour schedules one hour's arrivals for one subnet bucket.
func (gen *Generator) emitHour(eng *des.Engine, b *bucket, start time.Duration, submit func(cdn.Request)) {
	width := time.Hour
	if start+width > gen.span {
		width = gen.span - start
	}
	mean := gen.ratePerHour(start+width/2) * b.share * width.Hours()
	n := b.g.Poisson(mean)
	if gen.arrivals != nil {
		gen.arrivals.Add(int64(n))
		gen.batches.Inc()
	}
	for i := 0; i < n; i++ {
		at := start + time.Duration(b.g.Float64()*float64(width))
		eng.Schedule(at, func() {
			submit(gen.request(b, at))
		})
	}
}
