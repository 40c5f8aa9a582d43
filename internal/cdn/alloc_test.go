//go:build !race

package cdn

import (
	"io"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// TestQuirkPoolAllocs is the quirk sessions' allocation contract: the
// legacy/third-party pool a session draws from is read from the table
// NewSimulator built, so looking it up allocates nothing. Rebuilding
// it from World.ServersOfClass on every quirk session was the
// simulator's largest allocation site.
func TestQuirkPoolAllocs(t *testing.T) {
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

// TestFlowEmissionAllocs is the per-flow emission contract on an
// instrumented rig: no flow allocates. A control flow reads the
// base-RTT table (baseRTT), samples netmodel.Jitter on it, renders the
// VideoID into the record's array (content.StringID) and logs through
// record, which bumps an obs.Counter. A video flow also sizes itself
// with Resolution.SizeBytes, begins its load accounting and schedules
// its server's EndFlow closure, which the first flow at that server
// built (endFlowAt); the engine step that runs it allocates nothing.
// A follow-up (followUpAfter, then the engine steps that run its chain
// and end its flow) takes its record from the simulator's free list,
// which the warm-up run fills, and queues the record's fire method,
// bound when the record was made. The sink is a WriterSink into
// io.Discard, which averages no allocation per record (capture's
// TestRecordAllocs), so the counts are the emission's own.
func TestFlowEmissionAllocs(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.sim.Instrument(obs.NewRegistry())
	r.sim.sink = capture.NewWriterSink(io.Discard)
	req := r.request(0, 3)
	vp := r.w.VantagePoints[req.VP]
	g := r.sim.rng(req)
	srv := r.sel.ResolveDNS(req.Subnet.LDNS, req.Video, g)

	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"emitControl", 0, func() { r.sim.emitControl(vp, req, g, srv, r.eng.Now()) }},
		{"emitVideo", 0, func() {
			r.sim.emitVideo(vp, req, g, srv, r.eng.Now(), 1)
			r.eng.Step()
		}},
		{"followUp", 0, func() {
			r.sim.followUpAfter(time.Second, req, g)
			for r.eng.Step() {
			}
		}},
	} {
		allocs := testing.AllocsPerRun(1000, c.run)
		t.Logf("%s: %.1f allocs per flow", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s allocates %.1f times per flow, budget %.0f", c.name, allocs, c.budget)
		}
	}
	if r.sim.Flows() == 0 || r.eng.Pending() != 0 {
		t.Errorf("recorded %d flows, %d events pending; want flows and no pending event", r.sim.Flows(), r.eng.Pending())
	}
}
