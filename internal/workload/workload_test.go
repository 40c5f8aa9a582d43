package workload

import (
	"math"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/cdn"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

func testWorldAndCatalog(t *testing.T) (*topology.World, *content.Catalog) {
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
	cat, err := content.NewCatalog(content.Config{
		N: 1000, ZipfExponent: 0.8, TailRank: 500, VOTDShare: 0.05, Days: 7,
		MedianDuration: time.Minute, DurationSigma: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, cat
}

func TestDiurnalWeightShape(t *testing.T) {
	peak := DiurnalWeight(20*time.Hour, 20, 0.1)
	trough := DiurnalWeight(8*time.Hour, 20, 0.1)
	if math.Abs(peak-1.0) > 1e-9 {
		t.Errorf("peak weight = %f, want 1", peak)
	}
	if math.Abs(trough-0.1) > 1e-9 {
		t.Errorf("trough weight = %f, want minFrac", trough)
	}
	// 24h periodicity.
	if math.Abs(DiurnalWeight(44*time.Hour, 20, 0.1)-peak) > 1e-9 {
		t.Error("weight must be 24h-periodic")
	}
}

func TestDiurnalWeightBounds(t *testing.T) {
	for h := 0.0; h < 48; h += 0.25 {
		w := DiurnalWeight(time.Duration(h*float64(time.Hour)), 15, 0.07)
		if w < 0.07-1e-9 || w > 1+1e-9 {
			t.Fatalf("weight %f out of [minFrac, 1] at hour %f", w, h)
		}
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	if _, err := NewGenerator(w, -1, cat, time.Hour, stats.NewRNG(1)); err == nil {
		t.Error("negative VP index must fail")
	}
	if _, err := NewGenerator(w, 99, cat, time.Hour, stats.NewRNG(1)); err == nil {
		t.Error("out-of-range VP index must fail")
	}
	if _, err := NewGenerator(w, 0, cat, 0, stats.NewRNG(1)); err == nil {
		t.Error("zero span must fail")
	}
}

func TestGeneratorVolumeMatchesTarget(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	span := 7 * 24 * time.Hour
	gen, err := NewGenerator(w, 0, cat, span, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var eng des.Engine
	count := 0
	gen.Schedule(&eng, func(cdn.Request) { count++ })
	eng.Run()
	want := gen.TotalSessions()
	if math.Abs(float64(count)-want) > want*0.1 {
		t.Errorf("sessions = %d, want ~%.0f", count, want)
	}
}

func TestGeneratorDiurnalPattern(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	span := 7 * 24 * time.Hour
	gen, err := NewGenerator(w, 4, cat, span, stats.NewRNG(3)) // EU2
	if err != nil {
		t.Fatal(err)
	}
	var eng des.Engine
	perHour := make([]int, 24)
	gen.Schedule(&eng, func(cdn.Request) {
		perHour[int(eng.Now().Hours())%24]++
	})
	eng.Run()
	vp := w.VantagePoints[4]
	peakHour := int(vp.DiurnalPeakHour)
	troughHour := (peakHour + 12) % 24
	if perHour[peakHour] < 3*perHour[troughHour] {
		t.Errorf("no diurnal pattern: peak %d vs trough %d", perHour[peakHour], perHour[troughHour])
	}
}

func TestGeneratorSubnetWeights(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	gen, err := NewGenerator(w, 0, cat, 7*24*time.Hour, stats.NewRNG(4)) // US-Campus
	if err != nil {
		t.Fatal(err)
	}
	var eng des.Engine
	counts := make(map[string]int)
	total := 0
	gen.Schedule(&eng, func(req cdn.Request) {
		counts[req.Subnet.Name]++
		total++
	})
	eng.Run()
	if total == 0 {
		t.Fatal("no sessions generated")
	}
	for _, sn := range w.VantagePoints[0].Subnets {
		frac := float64(counts[sn.Name]) / float64(total)
		if math.Abs(frac-sn.Weight) > 0.03 {
			t.Errorf("subnet %s share = %.3f, want %.3f", sn.Name, frac, sn.Weight)
		}
	}
}

func TestGeneratorClientsStayInSubnet(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	gen, err := NewGenerator(w, 1, cat, 24*time.Hour, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var eng des.Engine
	gen.Schedule(&eng, func(req cdn.Request) {
		if !req.Subnet.Prefix.Contains(req.Client) {
			t.Fatalf("client %s outside subnet %s", req.Client, req.Subnet.Prefix)
		}
	})
	eng.Run()
}

func TestGeneratorDeterministic(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	collect := func() []cdn.Request {
		gen, err := NewGenerator(w, 2, cat, 24*time.Hour, stats.NewRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		var eng des.Engine
		var out []cdn.Request
		gen.Schedule(&eng, func(req cdn.Request) { out = append(out, req) })
		eng.Run()
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Client != b[i].Client || a[i].Video != b[i].Video {
			t.Fatal("request streams differ between identical runs")
		}
	}
}

func TestGeneratorVideoDistributionSkewed(t *testing.T) {
	w, cat := testWorldAndCatalog(t)
	gen, err := NewGenerator(w, 0, cat, 7*24*time.Hour, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	var eng des.Engine
	head, total := 0, 0
	gen.Schedule(&eng, func(req cdn.Request) {
		total++
		if int(req.Video) < 100 {
			head++
		}
	})
	eng.Run()
	frac := float64(head) / float64(total)
	if frac < 0.15 {
		t.Errorf("top-100 video share = %.3f; catalog skew missing", frac)
	}
}
