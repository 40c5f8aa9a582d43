package cdn

import (
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

type rig struct {
	w    *topology.World
	cat  *content.Catalog
	sel  *core.Selector
	eng  *des.Engine
	sink *capture.MemSink
	sim  *Simulator
}

func newRig(t *testing.T, cfg Config) *rig {
	return newRigSpan(t, cfg, core.DefaultConfig(), 0)
}

func newRigSpan(t *testing.T, cfg Config, selCfg core.Config, span time.Duration) *rig {
	t.Helper()
	w, err := topology.BuildPaperWorld(topology.PaperConfig{
		Scale:             0.001,
		ServersPerDCNA:    6,
		ServersPerDCEU:    5,
		ServersPerDCOther: 4,
		LegacyServers:     16,
		ThirdPartyServers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := content.NewCatalog(content.Config{
		N: 2000, ZipfExponent: 0.8, TailRank: 800, VOTDShare: 0.05, Days: 7,
		MedianDuration: 120 * time.Second, DurationSigma: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlacement(w, cat, core.OriginPolicy{CopiesPerVideo: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewSelector(w, pl, selCfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := &des.Engine{}
	sink := capture.NewMemSink()
	sim, err := NewSimulator(w, cat, sel, eng, sink, cfg, stats.NewRNG(5), span)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{w: w, cat: cat, sel: sel, eng: eng, sink: sink, sim: sim}
}

func (r *rig) request(vp int, video content.VideoID) Request {
	v := r.w.VantagePoints[vp]
	sn := v.Subnets[0]
	addr, _ := sn.Prefix.Nth(5)
	return Request{VP: vp, Subnet: sn, Client: addr, Video: video, Res: content.Res360p}
}

// TestBaseRTTTableMatchesModel is the oracle for the per-(VP, DC)
// RTT table: for every vantage point of the paper world, the table
// entry of every data center must equal the latency model's BaseRTT
// between the two endpoints, and baseRTT of every server must equal
// BaseRTT to the server's data center, the value the chain, control
// and race paths computed per call before the table.
func TestBaseRTTTableMatchesModel(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if len(r.sim.rtt) != len(r.w.VantagePoints) {
		t.Fatalf("table has %d rows for %d vantage points", len(r.sim.rtt), len(r.w.VantagePoints))
	}
	for vp, v := range r.w.VantagePoints {
		ep := v.Endpoint()
		if len(r.sim.rtt[vp]) != len(r.w.DataCenters) {
			t.Fatalf("%s: row has %d entries for %d data centers", v.Name, len(r.sim.rtt[vp]), len(r.w.DataCenters))
		}
		for _, dc := range r.w.DataCenters {
			if got, want := r.sim.rtt[vp][dc.ID], r.w.Net.BaseRTT(ep, dc.Endpoint()); got != want {
				t.Errorf("%s -> %s: table %v, BaseRTT %v", v.Name, dc.City.Name, got, want)
			}
		}
		for _, srv := range r.w.Servers {
			if got, want := r.sim.baseRTT(vp, srv.ID), r.w.Net.BaseRTT(ep, r.w.DC(srv.DC).Endpoint()); got != want {
				t.Errorf("%s -> server %d: baseRTT %v, BaseRTT %v", v.Name, srv.ID, got, want)
			}
		}
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	bad := DefaultConfig()
	bad.ControlBytesMax = 1500
	if _, err := NewSimulator(r.w, r.cat, r.sel, r.eng, r.sink, bad, stats.NewRNG(1), 0); err == nil {
		t.Error("control bytes above threshold must be rejected")
	}
	bad = DefaultConfig()
	bad.ControlBytesMin = 0
	if _, err := NewSimulator(r.w, r.cat, r.sel, r.eng, r.sink, bad, stats.NewRNG(1), 0); err == nil {
		t.Error("zero ControlBytesMin must be rejected")
	}
	bad = DefaultConfig()
	bad.MinWatchFrac = 0
	if _, err := NewSimulator(r.w, r.cat, r.sel, r.eng, r.sink, bad, stats.NewRNG(1), 0); err == nil {
		t.Error("zero MinWatchFrac must be rejected")
	}
}

func TestReplicatedSessionSingleVideoFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreludeProb = 0
	cfg.FollowUpProb = 0
	r := newRig(t, cfg)
	req := r.request(0, 10) // replicated video
	r.eng.Schedule(0, func() { r.sim.SubmitSession(req) })
	r.eng.Run()

	trace := r.sink.Trace(topology.DatasetUSCampus)
	if len(trace) != 1 {
		t.Fatalf("flows = %d, want 1", len(trace))
	}
	if trace[0].Bytes < 1000 {
		t.Error("single flow must be a video flow")
	}
	if trace[0].VideoID != content.StringID(10) {
		t.Errorf("VideoID = %s", trace[0].VideoID)
	}
	// Served from the preferred DC.
	srv, ok := r.w.ServerByAddr(trace[0].Server)
	if !ok {
		t.Fatal("server not found")
	}
	pref := r.sel.Preferred(req.Subnet.LDNS)
	if srv.DC != pref {
		t.Errorf("served from DC %d, want preferred %d", srv.DC, pref)
	}
}

func TestColdTailSessionHasRedirectChain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreludeProb = 0
	cfg.FollowUpProb = 0
	r := newRig(t, cfg)
	us := r.w.VantagePoints[0]
	home := core.HomeOf(us)
	pref := r.sel.Preferred(us.Subnets[0].LDNS)

	// Find a tail video not at the preferred DC.
	var video content.VideoID = -1
	for cand := content.VideoID(800); cand < 2000; cand++ {
		onPref := false
		for _, o := range r.sim.placementOrigins(cand, home) {
			if o == pref {
				onPref = true
			}
		}
		if !onPref {
			video = cand
			break
		}
	}
	if video < 0 {
		t.Fatal("no cold video found")
	}
	req := r.request(0, video)
	r.eng.Schedule(0, func() { r.sim.SubmitSession(req) })
	r.eng.Run()

	trace := r.sink.Trace(topology.DatasetUSCampus)
	if len(trace) != 2 {
		t.Fatalf("flows = %d, want control+video", len(trace))
	}
	if trace[0].Bytes >= 1000 || trace[1].Bytes < 1000 {
		t.Errorf("flow sizes: %d then %d; want control then video", trace[0].Bytes, trace[1].Bytes)
	}
	// The control flow goes to the preferred DC; the video flow to a
	// different one.
	first, _ := r.w.ServerByAddr(trace[0].Server)
	second, _ := r.w.ServerByAddr(trace[1].Server)
	if first.DC != pref {
		t.Errorf("control flow DC = %d, want preferred %d", first.DC, pref)
	}
	if second.DC == pref {
		t.Error("video flow must come from a non-preferred DC")
	}
	// The two flows are close enough in time to form one session at
	// T=1s.
	if gap := trace[1].Start - trace[0].End; gap <= 0 || gap > time.Second {
		t.Errorf("inter-flow gap = %v, want (0, 1s]", gap)
	}
}

// placementOrigins exposes origin lookup for tests.
func (s *Simulator) placementOrigins(v content.VideoID, home core.Home) []topology.DataCenterID {
	return s.sel.PlacementOrigins(v, home)
}

func TestPreludeProducesTwoFlowSession(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreludeProb = 1.0
	cfg.FollowUpProb = 0
	r := newRig(t, cfg)
	req := r.request(0, 10)
	r.eng.Schedule(0, func() { r.sim.SubmitSession(req) })
	r.eng.Run()

	trace := r.sink.Trace(topology.DatasetUSCampus)
	if len(trace) != 2 {
		t.Fatalf("flows = %d, want prelude+video", len(trace))
	}
	if trace[0].Bytes >= 1000 {
		t.Error("prelude must be a control flow")
	}
}

func TestFollowUpScheduledLater(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreludeProb = 0
	cfg.FollowUpProb = 1.0
	r := newRig(t, cfg)
	req := r.request(0, 10)
	r.eng.Schedule(0, func() { r.sim.SubmitSession(req) })
	r.eng.Run()

	trace := r.sink.Trace(topology.DatasetUSCampus)
	if len(trace) != 2 {
		t.Fatalf("flows = %d, want initial + follow-up", len(trace))
	}
	gap := trace[1].Start - trace[0].Start
	if gap < cfg.FollowUpGapMin {
		t.Errorf("follow-up gap %v below minimum %v", gap, cfg.FollowUpGapMin)
	}
}

func TestLegacySessionServedFromLegacyPool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FollowUpProb = 0
	r := newRig(t, cfg)
	// Force the legacy path for every session of US-Campus.
	r.w.VantagePoints[0].LegacyProb = 1.0
	req := r.request(0, 10)
	r.eng.Schedule(0, func() { r.sim.SubmitSession(req) })
	r.eng.Run()

	trace := r.sink.Trace(topology.DatasetUSCampus)
	if len(trace) != 1 {
		t.Fatalf("flows = %d, want 1", len(trace))
	}
	srv, _ := r.w.ServerByAddr(trace[0].Server)
	if srv.Class != topology.ClassLegacyEU {
		t.Errorf("server class = %v, want legacy", srv.Class)
	}
	// American networks must hit American legacy caches only.
	if r.w.DC(srv.DC).City.Continent != r.w.VantagePoints[0].HomeContinent() {
		t.Error("US legacy session escaped the continent")
	}
}

// TestQuirkPoolsMatchPerSessionRebuild pins the cached quirk pools to
// the rebuild serveFromClass used to do on every quirk session: the
// class's servers in World order, narrowed for a North American VP to
// those on its continent unless that leaves none. Same pool, same
// order, so the same Intn draw picks the same server.
func TestQuirkPoolsMatchPerSessionRebuild(t *testing.T) {
	r := newRig(t, DefaultConfig())
	for i, vp := range r.w.VantagePoints {
		for _, class := range []topology.ServerClass{topology.ClassLegacyEU, topology.ClassThirdParty} {
			var same, all []*topology.Server
			for _, srv := range r.w.ServersOfClass(class) {
				all = append(all, srv)
				if r.w.DC(srv.DC).City.Continent == vp.HomeContinent() {
					same = append(same, srv)
				}
			}
			want := all
			if vp.HomeContinent() == geo.NorthAmerica && len(same) > 0 {
				want = same
			}
			got := r.sim.quirkPool(i, class)
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s class %v: pool of %d servers, want %d", vp.Name, class, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s class %v: pool[%d] = %v, want %v", vp.Name, class, k, got[k].Addr, want[k].Addr)
				}
			}
		}
	}
}

func TestLoadBalancedAccounting(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	for i := 0; i < 200; i++ {
		i := i
		r.eng.Schedule(time.Duration(i)*time.Second, func() {
			r.sim.SubmitSession(r.request(i%5, content.VideoID(i%50)))
		})
	}
	r.eng.Run()
	// After the engine drains, all flows have ended: every load must
	// be zero.
	for _, srv := range r.w.Servers {
		if r.sel.ServerLoad(srv.ID) != 0 {
			t.Fatalf("server %d load %d after drain", srv.ID, r.sel.ServerLoad(srv.ID))
		}
	}
	if r.sim.Sessions() != 200 {
		t.Errorf("sessions = %d", r.sim.Sessions())
	}
	if r.sim.Flows() < 200 {
		t.Errorf("flows = %d, want >= sessions", r.sim.Flows())
	}
}

func TestVideoFlowBytesFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreludeProb = 0
	cfg.FollowUpProb = 0
	r := newRig(t, cfg)
	for i := 0; i < 300; i++ {
		i := i
		r.eng.Schedule(time.Duration(i)*time.Second, func() {
			r.sim.SubmitSession(r.request(0, content.VideoID(i)))
		})
	}
	r.eng.Run()
	// Every session ends with a video flow of >= 1000 bytes (the
	// classification floor); sub-1000 flows are redirect controls.
	largest := make(map[capture.VideoID]int64)
	for _, rec := range r.sink.Trace(topology.DatasetUSCampus) {
		if rec.End <= rec.Start {
			t.Fatalf("non-positive flow duration")
		}
		if rec.Bytes > largest[rec.VideoID] {
			largest[rec.VideoID] = rec.Bytes
		}
	}
	for id, max := range largest {
		if max < 1000 {
			t.Fatalf("video %s never produced a video flow (max %d bytes)", id, max)
		}
	}
}

func TestClientAddrPreserved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FollowUpProb = 0
	r := newRig(t, cfg)
	req := r.request(2, 10) // EU1-ADSL
	r.eng.Schedule(0, func() { r.sim.SubmitSession(req) })
	r.eng.Run()
	trace := r.sink.Trace(topology.DatasetEU1ADSL)
	if len(trace) == 0 {
		t.Fatal("no flows")
	}
	for _, rec := range trace {
		if rec.Client != req.Client {
			t.Errorf("client = %s, want %s", rec.Client, req.Client)
		}
		if rec.Resolution != content.Res360p {
			t.Errorf("resolution = %s", rec.Resolution)
		}
	}
}

var _ = ipnet.Addr(0) // keep ipnet imported for request helper clarity
