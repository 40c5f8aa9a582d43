package cdn

import (
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// newPolicyRig builds a player rig whose selection engine runs the
// given policy.
func newPolicyRig(t *testing.T, policy core.SelectionPolicy) *rig {
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
	selCfg := core.DefaultConfig()
	selCfg.Policy = policy
	sel, err := core.NewSelector(w, pl, selCfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := &des.Engine{}
	sink := capture.NewMemSink()
	sim, err := NewSimulator(w, cat, sel, eng, sink, DefaultConfig(), stats.NewRNG(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{w: w, cat: cat, sel: sel, eng: eng, sink: sink, sim: sim}
}

// hotspotRequest returns a US-Campus request for a replicated (hot)
// video together with its hashed server at the preferred DC.
func hotspotRequest(r *rig) (Request, topology.ServerID, topology.LDNSID) {
	idx := r.w.VPIndex(topology.DatasetUSCampus)
	vp := r.w.VantagePoints[idx]
	sn := vp.Subnets[0]
	client, _ := sn.Prefix.Nth(1)
	v := content.VideoID(3) // well below TailRank: replicated everywhere
	req := Request{VP: idx, Subnet: sn, Client: client, Video: v, Res: content.Res360p}
	pref := r.sel.Preferred(sn.LDNS)
	return req, r.sel.ServerForVideo(pref, v), sn.LDNS
}

// servedResponse models the effective time to first byte a viewer of
// the chain's serving server experiences: base network RTT plus the
// same utilisation-quadratic queueing delay the racing player senses.
// It is the "served RTT" metric under load.
func servedResponse(r *rig, vpEp topology.VantagePoint, srv topology.ServerID) time.Duration {
	resp := r.w.Net.BaseRTT(vpEp.Endpoint(), r.w.DC(r.w.Server(srv).DC).Endpoint())
	if capacity := r.w.Server(srv).Capacity; capacity > 0 {
		util := float64(r.sel.ServerLoad(srv)) / float64(capacity)
		resp += time.Duration(util * util * float64(raceQueuePenalty))
	}
	return resp
}

// runHotspotChains saturates the hot video's preferred server (held
// flows that never end) and schedules n selection chains through the
// DES engine, spaced widely enough that each chain's own video flow
// drains before the next arrives. It returns the mean effective
// served response time and how many chains the saturated server
// absorbed.
func runHotspotChains(t *testing.T, policy core.SelectionPolicy, n int) (mean time.Duration, hotServed int) {
	t.Helper()
	r := newPolicyRig(t, policy)
	req, hot, _ := hotspotRequest(r)
	vp := *r.w.VantagePoints[req.VP]
	for i := 0; i < r.w.Server(hot).Capacity; i++ {
		r.sel.BeginFlow(hot)
	}

	var sum time.Duration
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Hour
		r.eng.Schedule(at, func() {
			before := len(r.sink.Trace(vp.Name))
			r.sim.runChain(req, r.sim.rng(req), r.eng.Now(), 1.0)
			recs := r.sink.Trace(vp.Name)[before:]
			// The chain's video flow is its last record; map it back
			// to the serving server and read its load right away.
			served, ok := r.w.ServerByAddr(recs[len(recs)-1].Server)
			if !ok {
				t.Error("video flow from unknown server")
				return
			}
			sum += servedResponse(r, vp, served.ID)
			if served.ID == hot {
				hotServed++
			}
		})
	}
	r.eng.Run()
	return sum / time.Duration(n), hotServed
}

// TestClientRaceBeatsProximityUnderHotspot is the go-with-the-winner
// acceptance test: with the hot video's preferred server saturated,
// racing clients steer around the hot-spot on their own, so their
// effective served response time (RTT plus queueing) beats
// ProximityOnly's, which keeps piling sessions onto the saturated
// server. ProximityOnly still wins on raw proximity — that is exactly
// the trade the paper's load-adaptive mechanisms make.
func TestClientRaceBeatsProximityUnderHotspot(t *testing.T) {
	const n = 150
	raceMean, raceHot := runHotspotChains(t, &core.ClientRace{}, n)
	proxMean, proxHot := runHotspotChains(t, core.ProximityOnly{}, n)

	if proxHot != n {
		t.Fatalf("ProximityOnly served %d/%d chains from the saturated server, want all", proxHot, n)
	}
	if raceHot > n/10 {
		t.Errorf("ClientRace still served %d/%d chains from the saturated server", raceHot, n)
	}
	if raceMean*2 >= proxMean {
		t.Errorf("ClientRace mean served response %v not clearly better than ProximityOnly %v", raceMean, proxMean)
	}
}

// TestRaceMetrics checks the ground-truth accounting of raced chains.
func TestRaceMetrics(t *testing.T) {
	r := newPolicyRig(t, &core.ClientRace{})
	req, hot, ldns := hotspotRequest(r)
	for i := 0; i < r.w.Server(hot).Capacity; i++ {
		r.sel.BeginFlow(hot)
	}
	const n = 40
	for i := 0; i < n; i++ {
		r.sim.runChain(req, r.sim.rng(req), 0, 1.0)
	}
	m := r.sim.Metrics()
	if m.Chains != n || m.RaceWins != n {
		t.Fatalf("Chains=%d RaceWins=%d, want %d raced chains", m.Chains, m.RaceWins, n)
	}
	if m.SumServedRTT <= 0 {
		t.Error("SumServedRTT not accumulated")
	}
	spills, _, _ := r.sel.Counters()
	pref := r.sel.Preferred(ldns)
	offPref := n - countServedFrom(r, req, pref)
	if spills != offPref {
		t.Errorf("spills=%d, want one per off-preferred commit (%d)", spills, offPref)
	}
}

// countServedFrom counts video flows of the request's dataset served
// from the given DC.
func countServedFrom(r *rig, req Request, dc topology.DataCenterID) int {
	vp := r.w.VantagePoints[req.VP]
	n := 0
	for _, rec := range r.sink.Trace(vp.Name) {
		if rec.Bytes < 1000 {
			continue
		}
		if srv, ok := r.w.ServerByAddr(rec.Server); ok && srv.DC == dc {
			n++
		}
	}
	return n
}
