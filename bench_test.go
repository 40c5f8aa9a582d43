package ytcdn

// One benchmark per table and figure of the paper. Each bench shares a
// single reduced-scale study (building it and running CBG geolocation
// once), then measures the cost of regenerating its table or figure
// from the traces, reporting the experiment's headline metric via
// b.ReportMetric so `go test -bench` output doubles as a compact
// reproduction summary.

import (
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/experiments"
)

var (
	benchOnce sync.Once
	benchH    *experiments.Harness
	benchErr  error
)

// benchHarness builds the shared study: a full week (the diurnal and
// video-of-the-day structure needs all seven days) at 4% volume. The
// expensive shared setup (CBG geolocation, campaigns, sessionization)
// warms through the parallel harness at one worker per core; the
// cached artifacts are bit-identical to a sequential warm.
func benchHarness(b *testing.B) *experiments.Harness {
	b.Helper()
	benchOnce.Do(func() {
		var s *Study
		s, benchErr = Run(Options{Scale: 0.04, Span: 7 * 24 * time.Hour, Parallelism: runtime.NumCPU()})
		if benchErr != nil {
			return
		}
		benchH = s.Experiments()
		benchErr = benchH.Warm()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchH
}

// benchWarm measures the full analysis warm (geolocation + campaigns +
// dataset pipelines) from cold caches at the given pool size, sharing
// one study across iterations. Comparing the two pool sizes shows the
// wall-clock win of the concurrent runtime.
func benchWarm(b *testing.B, parallelism int) {
	s, err := Run(Options{Scale: 0.02, Span: 7 * 24 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	in := s.Experiments().Input()
	in.Parallelism = parallelism
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.New(in).Warm(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmSequential(b *testing.B) { benchWarm(b, 1) }

func BenchmarkWarmParallel(b *testing.B) { benchWarm(b, runtime.NumCPU()) }

func BenchmarkTableI(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var flows int
	for i := 0; i < b.N; i++ {
		res, err := h.TableI()
		if err != nil {
			b.Fatal(err)
		}
		flows = 0
		for _, row := range res.Rows {
			flows += row.Flows
		}
	}
	b.ReportMetric(float64(flows), "flows")
}

func BenchmarkTableII(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var googleByteFrac float64
	for i := 0; i < b.N; i++ {
		res, err := h.TableII()
		if err != nil {
			b.Fatal(err)
		}
		googleByteFrac = res.Rows[0].Breakdown.Google.ByteFrac
	}
	b.ReportMetric(googleByteFrac*100, "us_google_bytes_%")
}

func BenchmarkTableIII(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var na int
	for i := 0; i < b.N; i++ {
		res, err := h.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		na = res.Rows[0].Counts.NorthAmerica
	}
	b.ReportMetric(float64(na), "us_na_servers")
}

func BenchmarkFig02RTTCDF(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig02RTT()
		if err != nil {
			b.Fatal(err)
		}
		med = res.RTTms[DatasetUSCampus].Median()
	}
	b.ReportMetric(med, "us_median_rtt_ms")
}

func BenchmarkFig03CBGRadius(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig03CBGRadius()
		if err != nil {
			b.Fatal(err)
		}
		med = res.US.Median()
	}
	b.ReportMetric(med, "us_median_radius_km")
}

func BenchmarkFig04FlowSizes(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var kink float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig04FlowSizes()
		if err != nil {
			b.Fatal(err)
		}
		kink = res.ControlFrac[DatasetUSCampus]
	}
	b.ReportMetric(kink*100, "control_flows_%")
}

func BenchmarkFig05SessionGapT(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig05SessionGapT()
		if err != nil {
			b.Fatal(err)
		}
		spread = res.Hist[time.Second][0] - res.Hist[300*time.Second][0]
	}
	b.ReportMetric(spread, "t1_vs_t300_singleflow_delta")
}

func BenchmarkFig06FlowsPerSession(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig06FlowsPerSession()
		if err != nil {
			b.Fatal(err)
		}
		frac = res.SingleFlowFrac(DatasetUSCampus)
	}
	b.ReportMetric(frac, "us_singleflow_frac")
}

func BenchmarkFig07BytesByRTT(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig07BytesByRTT()
		if err != nil {
			b.Fatal(err)
		}
		share = res.PreferredShare[DatasetUSCampus]
	}
	b.ReportMetric(share*100, "us_preferred_share_%")
}

func BenchmarkFig08BytesByDistance(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig08BytesByDistance()
		if err != nil {
			b.Fatal(err)
		}
		share = res.ClosestFiveShare[DatasetUSCampus]
	}
	b.ReportMetric(share*100, "us_closest5_share_%")
}

func BenchmarkFig09NonPreferredHourly(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig09NonPreferredHourly()
		if err != nil {
			b.Fatal(err)
		}
		med = res.Fracs[DatasetEU2].Median()
	}
	b.ReportMetric(med, "eu2_hourly_nonpref_median")
}

func BenchmarkFig10aSingleFlow(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var nonPref float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig10SessionPatterns()
		if err != nil {
			b.Fatal(err)
		}
		nonPref = res.Single[DatasetEU2].NonPreferred
	}
	b.ReportMetric(nonPref, "eu2_singleflow_nonpref")
}

func BenchmarkFig10bTwoFlow(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var pn float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig10SessionPatterns()
		if err != nil {
			b.Fatal(err)
		}
		pn = res.Two[DatasetEU1ADSL].PrefNonPref
	}
	b.ReportMetric(pn, "eu1adsl_pref_nonpref_frac")
}

func BenchmarkFig11EU2Diurnal(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var day float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig11EU2Diurnal()
		if err != nil {
			b.Fatal(err)
		}
		day, _ = res.DayNightLocalFrac()
	}
	b.ReportMetric(day, "eu2_daytime_local_frac")
}

func BenchmarkFig12SubnetBias(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var net3 float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig12SubnetBias()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Shares {
			if s.Name == "Net-3" {
				net3 = s.NonPrefFrac
			}
		}
	}
	b.ReportMetric(net3*100, "net3_nonpref_share_%")
}

func BenchmarkFig13VideoNonPref(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var once float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig13VideoNonPref()
		if err != nil {
			b.Fatal(err)
		}
		once = res.ExactlyOnce[DatasetEU1Campus]
	}
	b.ReportMetric(once*100, "exactly_once_%")
}

func BenchmarkFig14HotVideos(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig14HotVideos()
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, v := range res.Videos {
			for _, x := range v.All {
				if x > peak {
					peak = x
				}
			}
		}
	}
	b.ReportMetric(peak, "hot_video_peak_per_hour")
}

func BenchmarkFig15ServerLoad(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig15ServerLoad()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.PeakRatio()
	}
	b.ReportMetric(ratio, "max_over_avg_load")
}

func BenchmarkFig16Video1Server(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var redirected float64
	for i := 0; i < b.N; i++ {
		res, err := h.Fig16Video1Server()
		if err != nil {
			b.Fatal(err)
		}
		redirected = res.Pattern.FirstPrefOnly.Total()
	}
	b.ReportMetric(redirected, "redirected_sessions")
}

func BenchmarkFig17FirstAccess(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var penalty float64
	for i := 0; i < b.N; i++ {
		fig17, _, err := h.PlanetLab()
		if err != nil {
			b.Fatal(err)
		}
		if len(fig17.Samples) >= 2 && fig17.Samples[1].RTTMs > 0 {
			penalty = fig17.Samples[0].RTTMs / fig17.Samples[1].RTTMs
		}
	}
	b.ReportMetric(penalty, "first_access_rtt_ratio")
}

func BenchmarkFig18RTTRatio(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	var gt1 float64
	for i := 0; i < b.N; i++ {
		_, fig18, err := h.PlanetLab()
		if err != nil {
			b.Fatal(err)
		}
		gt1 = 1 - fig18.Ratios.At(1.0000001)
	}
	b.ReportMetric(gt1, "frac_nodes_ratio_gt1")
}

// BenchmarkSimulationWeek measures raw simulation throughput: one
// simulated week of the five networks per iteration.
func BenchmarkSimulationWeek(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Run(Options{Scale: 0.02, Span: 7 * 24 * time.Hour, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.TotalFlows()), "flows")
	}
}

// BenchmarkAblationSelectionPolicies compares the full selection
// engine against the pre-2010 design of Adhikari et al. [7] — no
// load-adaptive mechanisms — measuring the non-preferred share the
// mechanisms add.
func BenchmarkAblationSelectionPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pol := core.DefaultPaperPolicy()
		pol.DNSLoadBalancing = false
		pol.HotspotRedirection = false
		s, err := Run(Options{Scale: 0.02, Span: 3 * 24 * time.Hour, Policy: pol})
		if err != nil {
			b.Fatal(err)
		}
		spills, hotspots, misses := s.Selector.Counters()
		if spills != 0 || hotspots != 0 {
			b.Fatal("ablated mechanisms still firing")
		}
		b.ReportMetric(float64(misses), "residual_miss_redirects")
	}
}

// BenchmarkFullStudyAndAllExperiments is the end-to-end cost of
// regenerating the complete paper at reduced scale.
func BenchmarkFullStudyAndAllExperiments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Run(Options{Scale: 0.02, Span: 7 * 24 * time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Experiments().RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullStudyDiskStore is the same end-to-end run with capture
// spilled to the disk-backed tracestore: the cost of the columnar
// round trip in exchange for flat RSS at paper scale. Small segments
// force many spills, the worst case for the disk path.
func BenchmarkFullStudyDiskStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Run(Options{
			Scale: 0.02, Span: 7 * 24 * time.Hour,
			Store: &StoreOptions{Dir: b.TempDir(), SegmentRecords: 4096},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Experiments().RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.TotalFlows()), "flows")
	}
}
