package probe

import (
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

func testWorld(t *testing.T) *topology.World {
	t.Helper()
	w, err := topology.BuildPaperWorld(topology.PaperConfig{
		Scale:             0.01,
		ServersPerDCNA:    4,
		ServersPerDCEU:    4,
		ServersPerDCOther: 4,
		LegacyServers:     8,
		ThirdPartyServers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMinRTTFromVP(t *testing.T) {
	w := testWorld(t)
	p := New(w, stats.NewRNG(1))
	// A Milan server from the Turin campus: a few ms.
	var milanSrv, mvSrv ipnet.Addr
	for _, dc := range w.DataCenters {
		if dc.Class != topology.ClassGoogle {
			continue
		}
		switch dc.City.Name {
		case geo.Milan.Name:
			milanSrv = dc.Servers[0].Addr
		case geo.MountainView.Name:
			mvSrv = dc.Servers[0].Addr
		}
	}
	near, err := p.MinRTTFromVP(topology.DatasetEU1Campus, milanSrv, 10)
	if err != nil {
		t.Fatal(err)
	}
	far, err := p.MinRTTFromVP(topology.DatasetEU1Campus, mvSrv, 10)
	if err != nil {
		t.Fatal(err)
	}
	if near >= far {
		t.Errorf("Milan (%v) must be closer than Mountain View (%v)", near, far)
	}
	if far < 90*time.Millisecond {
		t.Errorf("transatlantic RTT %v implausibly low", far)
	}
}

func TestMinRTTUnknownTargets(t *testing.T) {
	w := testWorld(t)
	p := New(w, stats.NewRNG(2))
	if _, err := p.MinRTTFromVP(topology.DatasetEU2, ipnet.MustParseAddr("9.9.9.9"), 3); err == nil {
		t.Error("unknown target must error")
	}
	if _, err := p.MinRTTFromVP("nope", w.Servers[0].Addr, 3); err == nil {
		t.Error("unknown VP must error")
	}
}

func TestCampaignSkipsUnroutable(t *testing.T) {
	w := testWorld(t)
	p := New(w, stats.NewRNG(3))
	targets := []ipnet.Addr{w.Servers[0].Addr, ipnet.MustParseAddr("9.9.9.9")}
	out, err := p.CampaignFromVP(topology.DatasetUSCampus, targets, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("campaign answered %d targets, want 1", len(out))
	}
	if _, err := p.CampaignFromVP(topology.DatasetUSCampus, []ipnet.Addr{ipnet.MustParseAddr("9.9.9.9")}, 3, 1); err == nil {
		t.Error("all-unroutable campaign must error")
	}
}

// TestCampaignParallelMatchesSequential pins the order-independence
// contract: a campaign fanned out over a pool is bit-identical to the
// sequential one, because every pair draws noise from its own forked
// stream.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	w := testWorld(t)
	p := New(w, stats.NewRNG(11))
	var targets []ipnet.Addr
	for _, srv := range w.Servers {
		targets = append(targets, srv.Addr)
		if len(targets) == 40 {
			break
		}
	}
	seq, err := p.CampaignFromVP(topology.DatasetUSCampus, targets, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []int{2, 8, 0} {
		got, err := p.CampaignFromVP(topology.DatasetUSCampus, targets, 5, pool)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(seq) {
			t.Fatalf("pool %d: %d answers, want %d", pool, len(got), len(seq))
		}
		for addr, ms := range seq {
			if got[addr] != ms {
				t.Errorf("pool %d: %s = %v, want %v", pool, addr, got[addr], ms)
			}
		}
	}
}

func TestCrossRTTMatrixSymmetric(t *testing.T) {
	w := testWorld(t)
	p := New(w, stats.NewRNG(4))
	m := p.CrossRTTMatrix(3, 1)
	n := len(w.Landmarks)
	if len(m) != n {
		t.Fatalf("matrix size %d, want %d", len(m), n)
	}
	for i := 0; i < n; i += 17 {
		for j := 0; j < n; j += 13 {
			if m[i][j] != m[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
			if i == j && m[i][j] != 0 {
				t.Fatalf("diagonal not zero")
			}
		}
	}
}

func TestLandmarkSweepPlausible(t *testing.T) {
	w := testWorld(t)
	p := New(w, stats.NewRNG(5))
	rtts, err := p.LandmarkSweep().RTTs(w.Servers[0].Addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts) != len(w.Landmarks) {
		t.Fatalf("rtts = %d, want %d", len(rtts), len(w.Landmarks))
	}
	for i, rtt := range rtts {
		if rtt <= 0 || rtt > time.Second {
			t.Fatalf("landmark %d rtt %v implausible", i, rtt)
		}
	}
}

// TestLandmarkSweepMatchesMinRTT is the sweep's oracle: for every
// server of a small world, including legacy and third-party ones, the
// table-driven sweep returns exactly the RTTs that the latency model's
// MinRTT gives from each landmark's endpoint on the stream forked for
// the target, drawn in landmark order.
func TestLandmarkSweepMatchesMinRTT(t *testing.T) {
	w := testWorld(t)
	p := New(w, stats.NewRNG(12))
	sweep := p.LandmarkSweep()
	for _, srv := range w.Servers {
		got, err := sweep.RTTs(srv.Addr, 3)
		if err != nil {
			t.Fatal(err)
		}
		ep := p.serverEndpoint(srv)
		g := p.g.Fork("lmrtt/" + srv.Addr.String())
		for i, lm := range w.Landmarks {
			if want := w.Net.MinRTT(lm.Endpoint(), ep, 3, g); got[i] != want {
				t.Fatalf("server %s (DC %d), landmark %s: sweep %v, MinRTT %v", srv.Addr, srv.DC, lm.Name, got[i], want)
			}
		}
	}
}

func newPlacement(t *testing.T, w *topology.World) (*content.Catalog, *core.Placement) {
	t.Helper()
	cat, err := content.NewCatalog(content.Config{
		N: 1000, ZipfExponent: 0.8, TailRank: 500, VOTDShare: 0, Days: 1,
		MedianDuration: time.Minute, DurationSigma: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlacement(w, cat, core.OriginPolicy{CopiesPerVideo: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cat, pl
}

func TestRunPlanetLabValidation(t *testing.T) {
	w := testWorld(t)
	cat, pl := newPlacement(t, w)
	cfg := DefaultPlanetLabConfig()
	cfg.Nodes = 0
	if _, err := RunPlanetLab(w, cat, pl, cfg, stats.NewRNG(6)); err == nil {
		t.Error("zero nodes must fail")
	}
	cfg = DefaultPlanetLabConfig()
	cfg.OriginCity = "Atlantis"
	if _, err := RunPlanetLab(w, cat, pl, cfg, stats.NewRNG(6)); err == nil {
		t.Error("unknown origin city must fail")
	}
}

func TestRunPlanetLabFirstAccessPenalty(t *testing.T) {
	w := testWorld(t)
	cat, pl := newPlacement(t, w)
	cfg := DefaultPlanetLabConfig()
	cfg.Nodes = 20
	cfg.Rounds = 5
	res, err := RunPlanetLab(w, cat, pl, cfg, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 20*5 {
		t.Fatalf("samples = %d", len(res.Samples))
	}

	// Every node is served from its preferred DC from round 1 onward.
	for n := range res.Nodes {
		series := res.NodeSeries(n)
		for _, s := range series[1:] {
			if s.FromDC != res.Nodes[n].Preferred {
				t.Fatalf("node %d round %d served from %d, want preferred %d",
					n, s.Round, s.FromDC, res.Nodes[n].Preferred)
			}
		}
	}

	// Some node far from the origin must pay a first-access penalty.
	ratios := res.RTTRatios()
	if len(ratios) == 0 {
		t.Fatal("no ratios")
	}
	maxRatio := 0.0
	for _, r := range ratios {
		if r > maxRatio {
			maxRatio = r
		}
	}
	if maxRatio < 3 {
		t.Errorf("max RTT1/RTT2 = %.2f; expected a clear first-access penalty", maxRatio)
	}
	// And no ratio is materially below 1 (the second access is never
	// slower than the first in expectation).
	for _, r := range ratios {
		if r < 0.3 {
			t.Errorf("ratio %.2f too low", r)
		}
	}
}

func TestRunPlanetLabSharedPull(t *testing.T) {
	// Two nodes with the same preferred DC: only the first one's first
	// access misses.
	w := testWorld(t)
	cat, pl := newPlacement(t, w)
	cfg := DefaultPlanetLabConfig()
	cfg.Nodes = 45
	cfg.Rounds = 3
	res, err := RunPlanetLab(w, cat, pl, cfg, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	missed := make(map[topology.DataCenterID]int)
	for _, s := range res.Samples {
		if s.Round == 0 && s.FromDC == res.OriginDC {
			node := res.Nodes[s.Node]
			if node.Preferred != res.OriginDC {
				missed[node.Preferred]++
			}
		}
	}
	for dc, n := range missed {
		if n > 1 {
			t.Errorf("preferred DC %d missed %d times in round 0; pull-through must dedupe", dc, n)
		}
	}
}
