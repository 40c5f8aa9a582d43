package netmodel

import (
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

func testModel() *Model { return New(DefaultConfig()) }

func ep(id string, city geo.City, access AccessTech) Endpoint {
	return Endpoint{ID: id, Loc: city.Point, Access: access}
}

func TestBaseRTTSymmetric(t *testing.T) {
	m := testModel()
	a := ep("a", geo.Turin, AccessCampus)
	b := ep("b", geo.NewYork, AccessDataCenter)
	if m.BaseRTT(a, b) != m.BaseRTT(b, a) {
		t.Error("BaseRTT must be symmetric")
	}
}

func TestBaseRTTDeterministic(t *testing.T) {
	m1, m2 := testModel(), testModel()
	a := ep("a", geo.Turin, AccessADSL)
	b := ep("b", geo.Milan, AccessDataCenter)
	if m1.BaseRTT(a, b) != m2.BaseRTT(a, b) {
		t.Error("BaseRTT must be deterministic")
	}
}

func TestBaseRTTScalesWithDistance(t *testing.T) {
	m := testModel()
	src := ep("src", geo.Turin, AccessCampus)
	near := m.BaseRTT(src, ep("near", geo.Milan, AccessDataCenter))
	mid := m.BaseRTT(src, ep("mid", geo.London, AccessDataCenter))
	far := m.BaseRTT(src, ep("far", geo.MountainView, AccessDataCenter))
	if !(near < mid && mid < far) {
		t.Errorf("RTT ordering wrong: near=%v mid=%v far=%v", near, mid, far)
	}
}

func TestBaseRTTTransatlanticPlausible(t *testing.T) {
	m := testModel()
	rtt := m.BaseRTT(ep("t", geo.Turin, AccessCampus), ep("mv", geo.MountainView, AccessDataCenter))
	if rtt < 90*time.Millisecond || rtt > 250*time.Millisecond {
		t.Errorf("Turin->MountainView base RTT = %v, want 90-250ms", rtt)
	}
	rtt = m.BaseRTT(ep("t", geo.Turin, AccessCampus), ep("mi", geo.Milan, AccessDataCenter))
	if rtt > 10*time.Millisecond {
		t.Errorf("Turin->Milan base RTT = %v, want < 10ms", rtt)
	}
}

func TestADSLSlowerThanFTTH(t *testing.T) {
	m := testModel()
	dst := ep("dc", geo.Milan, AccessDataCenter)
	adsl := m.BaseRTT(ep("c1", geo.Turin, AccessADSL), dst)
	ftth := m.BaseRTT(ep("c1", geo.Turin, AccessFTTH), dst)
	diff := adsl - ftth
	if diff < 5*time.Millisecond || diff > 25*time.Millisecond {
		t.Errorf("ADSL-FTTH delta = %v, want ~14ms", diff)
	}
}

func TestGatewayDetourInvertsProximity(t *testing.T) {
	// The US-Campus scenario: a campus near Chicago routing through a
	// New York gateway must see lower RTT to a New York data center
	// than to a Chicago one, even though Chicago is far closer.
	m := testModel()
	gw := geo.NewYork.Point
	campus := Endpoint{ID: "campus", Loc: geo.WestLafayette.Point, Access: AccessCampus, Gateway: &gw}
	chicago := ep("dc-chi", geo.Chicago, AccessDataCenter)
	newyork := ep("dc-nyc", geo.NewYork, AccessDataCenter)

	dChi := geo.Distance(geo.WestLafayette.Point, geo.Chicago.Point)
	dNyc := geo.Distance(geo.WestLafayette.Point, geo.NewYork.Point)
	if dChi >= dNyc {
		t.Fatalf("test premise broken: Chicago (%f km) not closer than NYC (%f km)", dChi, dNyc)
	}
	if m.BaseRTT(campus, newyork) >= m.BaseRTT(campus, chicago) {
		t.Errorf("gateway detour must make NYC lower-RTT: nyc=%v chi=%v",
			m.BaseRTT(campus, newyork), m.BaseRTT(campus, chicago))
	}
}

func TestSelfRTT(t *testing.T) {
	m := testModel()
	a := ep("x", geo.Turin, AccessCampus)
	if got := m.BaseRTT(a, a); got != DefaultConfig().BaseProcessing {
		t.Errorf("self RTT = %v", got)
	}
}

func TestSampleRTTAlwaysAtLeastBase(t *testing.T) {
	m := testModel()
	g := stats.NewRNG(1)
	a := ep("a", geo.Turin, AccessADSL)
	b := ep("b", geo.Amsterdam, AccessDataCenter)
	base := m.BaseRTT(a, b)
	for i := 0; i < 2000; i++ {
		if s := m.SampleRTT(a, b, g); s < base {
			t.Fatalf("sample %v below base %v", s, base)
		}
	}
}

func TestMinRTTConvergesToBase(t *testing.T) {
	m := testModel()
	g := stats.NewRNG(2)
	a := ep("a", geo.Turin, AccessCampus)
	b := ep("b", geo.Frankfurt, AccessDataCenter)
	base := m.BaseRTT(a, b)
	min := m.MinRTT(a, b, 50, g)
	if min < base {
		t.Fatalf("min below base")
	}
	if min-base > 2*time.Millisecond {
		t.Errorf("MinRTT(50 probes) = %v, base = %v; want within 2ms", min, base)
	}
}

// TestMinRTTMatchesSampleRTT is the oracle for MinRTT's hoisted
// BaseRTT: MinRTT(a, b, n, g) must equal the minimum of n SampleRTT
// calls on a stream with the same seed (BaseRTT for n = 0), and both
// streams must end at the same draw. Fifty seeds of ten samples put a
// few congestion spikes among the draws.
func TestMinRTTMatchesSampleRTT(t *testing.T) {
	m := testModel()
	gw := geo.NewYork.Point
	campus := Endpoint{ID: "campus", Loc: geo.WestLafayette.Point, Access: AccessCampus, Gateway: &gw}
	turin := ep("turin", geo.Turin, AccessADSL)
	pairs := []struct {
		name string
		a, b Endpoint
	}{
		{"plain", turin, ep("dc-ams", geo.Amsterdam, AccessDataCenter)},
		{"gateway", campus, ep("dc-chi", geo.Chicago, AccessDataCenter)},
		{"self", turin, turin},
	}
	for _, p := range pairs {
		for _, n := range []int{0, 1, 3, 5, 10} {
			for seed := int64(0); seed < 50; seed++ {
				g, ref := stats.NewRNG(seed), stats.NewRNG(seed)
				want := m.BaseRTT(p.a, p.b)
				for i := 0; i < n; i++ {
					if v := m.SampleRTT(p.a, p.b, ref); i == 0 || v < want {
						want = v
					}
				}
				if got := m.MinRTT(p.a, p.b, n, g); got != want {
					t.Fatalf("%s n=%d seed %d: MinRTT = %v, min of SampleRTT = %v", p.name, n, seed, got, want)
				}
				if got, w := g.Int63(), ref.Int63(); got != w {
					t.Fatalf("%s n=%d seed %d: streams end at different draws", p.name, n, seed)
				}
			}
		}
	}
}

func TestMinRTTZeroProbes(t *testing.T) {
	m := testModel()
	g := stats.NewRNG(3)
	a := ep("a", geo.Turin, AccessCampus)
	b := ep("b", geo.Paris, AccessDataCenter)
	if m.MinRTT(a, b, 0, g) != m.BaseRTT(a, b) {
		t.Error("MinRTT with 0 probes must fall back to BaseRTT")
	}
}

func TestPathInflationBounds(t *testing.T) {
	m := testModel()
	cfg := DefaultConfig()
	for i := 0; i < 200; i++ {
		f := m.pathInflation("a", string(rune('0'+i%60))+"suffix")
		if f < cfg.InflationMin || f > cfg.InflationMax {
			t.Fatalf("inflation %f out of bounds", f)
		}
	}
}

func TestAccessTechString(t *testing.T) {
	if AccessADSL.String() != "adsl" {
		t.Errorf("AccessADSL.String() = %q", AccessADSL.String())
	}
	if AccessTech(99).String() != "invalid" {
		t.Errorf("invalid tech String() = %q", AccessTech(99).String())
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := DefaultConfig()
	if New(cfg).Config() != cfg {
		t.Error("Config accessor mismatch")
	}
}
