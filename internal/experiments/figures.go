package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/analysis"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/probe"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// Fig02Result is the CDF of minimum RTT from each vantage point to the
// content servers of its dataset.
type Fig02Result struct {
	// RTTms maps dataset -> RTT samples in milliseconds.
	RTTms map[string]*stats.CDF
}

// Fig02RTT runs the ping campaigns of Fig 2.
func (h *Harness) Fig02RTT() (*Fig02Result, error) {
	res := &Fig02Result{RTTms: make(map[string]*stats.CDF)}
	for _, name := range h.DatasetNames() {
		camp, err := h.campaign(name)
		if err != nil {
			return nil, err
		}
		cdf := &stats.CDF{}
		for _, ms := range camp {
			cdf.Add(ms)
		}
		res.RTTms[name] = cdf
	}
	return res, nil
}

// Render formats Fig 2 as CDF samples.
func (r *Fig02Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 2: RTT TO CONTENT SERVERS (CDF, ms)\n")
	xs := []float64{10, 25, 50, 100, 150, 200, 250}
	for _, name := range topology.DatasetNames() {
		cdf, ok := r.RTTms[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-12s median=%6.1fms ", name, cdf.Median())
		for _, x := range xs {
			fmt.Fprintf(&b, " F(%3.0f)=%.2f", x, cdf.At(x))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Fig03Result is the CDF of CBG confidence-region radii, split by
// estimated continent as in the paper.
type Fig03Result struct {
	US, Europe *stats.CDF
}

// Fig03CBGRadius geolocates all servers and collects radii.
func (h *Harness) Fig03CBGRadius() (*Fig03Result, error) {
	regions, err := h.geolocate()
	if err != nil {
		return nil, err
	}
	res := &Fig03Result{US: &stats.CDF{}, Europe: &stats.CDF{}}
	for _, region := range regions {
		switch geo.ContinentOf(region.Centroid) {
		case geo.NorthAmerica:
			res.US.Add(region.RadiusKm)
		case geo.Europe:
			res.Europe.Add(region.RadiusKm)
		}
	}
	return res, nil
}

// Render formats Fig 3.
func (r *Fig03Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 3: CBG CONFIDENCE REGION RADIUS (CDF, km)\n")
	for _, row := range []struct {
		name string
		cdf  *stats.CDF
	}{{"US", r.US}, {"Europe", r.Europe}} {
		if row.cdf.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-8s n=%5d median=%6.1fkm p90=%7.1fkm\n",
			row.name, row.cdf.Len(), row.cdf.Median(), row.cdf.Quantile(0.9))
	}
	return b.String()
}

// Fig04Result is the per-dataset CDF of flow sizes.
type Fig04Result struct {
	Sizes map[string]analysis.FlowSizes
}

// Fig04FlowSizes reads each dataset's flow-size distribution from its
// census.
func (h *Harness) Fig04FlowSizes() (*Fig04Result, error) {
	names := h.DatasetNames()
	cs, err := h.censuses(names)
	if err != nil {
		return nil, err
	}
	res := &Fig04Result{Sizes: make(map[string]analysis.FlowSizes)}
	for i, name := range names {
		res.Sizes[name] = cs[i].sizes
	}
	return res, nil
}

// Render formats Fig 4.
func (r *Fig04Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 4: CDF OF YOUTUBE FLOW SIZES (bytes)\n")
	for _, name := range topology.DatasetNames() {
		fs, ok := r.Sizes[name]
		if !ok || fs.Flows == 0 {
			continue
		}
		n := float64(fs.Flows)
		fmt.Fprintf(&b, "%-12s control(<1kB)=%5.1f%% F(10k)=%.2f F(1M)=%.2f F(10M)=%.2f median=%.2gB\n",
			name, float64(fs.Control)/n*100, float64(fs.AtMost[0])/n, float64(fs.AtMost[1])/n,
			float64(fs.AtMost[2])/n, float64(fs.Median))
	}
	return b.String()
}

// Fig05Result is the US-Campus flows-per-session distribution for
// several values of the session gap T.
type Fig05Result struct {
	// Hist maps T -> 10 buckets (1..9 flows, >9).
	Hist map[time.Duration][]float64
}

// Fig05SessionGapT computes the T-sensitivity of sessionization: one
// start-ordered streaming pass tallies every T at once — no session
// list is ever held, and no dataset artifacts are needed (pure
// sessionization).
func (h *Harness) Fig05SessionGapT() (*Fig05Result, error) {
	name := topology.DatasetUSCampus
	googleStart, err := h.googleStartSource(name)
	if err != nil {
		return nil, err
	}
	gaps := []time.Duration{time.Second, 5 * time.Second, 10 * time.Second, 60 * time.Second, 300 * time.Second}
	tallies, err := analysis.SessionTalliesIter(googleStart(), gaps, 10)
	if err != nil {
		return nil, fmt.Errorf("experiments: sessionizing %s: %w", name, err)
	}
	res := &Fig05Result{Hist: make(map[time.Duration][]float64)}
	for i, T := range gaps {
		res.Hist[T] = tallies[i].Histogram()
	}
	return res, nil
}

// Render formats Fig 5 as cumulative fractions.
func (r *Fig05Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 5: FLOWS PER SESSION vs T (US-Campus, CDF)\n")
	var ts []time.Duration
	for t := range r.Hist {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	for _, t := range ts {
		hist := r.Hist[t]
		cum := 0.0
		fmt.Fprintf(&b, "T=%-5s", t)
		for k := 0; k < len(hist); k++ {
			cum += hist[k]
			if k < 4 || k == len(hist)-1 {
				fmt.Fprintf(&b, "  F(%d)=%.3f", k+1, cum)
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Fig06Result is the flows-per-session distribution per dataset at
// T = 1 second.
type Fig06Result struct {
	Hist map[string][]float64
}

// Fig06FlowsPerSession computes the T=1s histogram per dataset.
func (h *Harness) Fig06FlowsPerSession() (*Fig06Result, error) {
	res := &Fig06Result{Hist: make(map[string][]float64)}
	for _, name := range h.DatasetNames() {
		ds, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		res.Hist[name] = ds.tally.Histogram()
	}
	return res, nil
}

// SingleFlowFrac returns the fraction of single-flow sessions for a
// dataset (the paper reports 72.5-80.5%).
func (r *Fig06Result) SingleFlowFrac(dataset string) float64 {
	h, ok := r.Hist[dataset]
	if !ok || len(h) == 0 {
		return 0
	}
	return h[0]
}

// Render formats Fig 6.
func (r *Fig06Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 6: FLOWS PER SESSION, T=1s (CDF)\n")
	for _, name := range topology.DatasetNames() {
		hist, ok := r.Hist[name]
		if !ok {
			continue
		}
		cum := 0.0
		fmt.Fprintf(&b, "%-12s", name)
		for k := 0; k < len(hist); k++ {
			cum += hist[k]
			if k < 4 || k == len(hist)-1 {
				fmt.Fprintf(&b, "  F(%d)=%.3f", k+1, cum)
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Fig07Result is the cumulative byte fraction vs data-center RTT.
type Fig07Result struct {
	// Curves maps dataset -> (RTT ms, cumulative fraction) points.
	Curves map[string][]struct{ X, F float64 }
	// PreferredShare maps dataset -> preferred DC byte share.
	PreferredShare map[string]float64
	// PreferredIsMinRTT maps dataset -> whether the byte-dominant DC
	// is also the RTT-closest.
	PreferredIsMinRTT map[string]bool
}

// Fig07BytesByRTT computes the Fig 7 curves.
func (h *Harness) Fig07BytesByRTT() (*Fig07Result, error) {
	res := &Fig07Result{
		Curves:            make(map[string][]struct{ X, F float64 }),
		PreferredShare:    make(map[string]float64),
		PreferredIsMinRTT: make(map[string]bool),
	}
	for _, name := range h.DatasetNames() {
		ds, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		res.Curves[name] = analysis.CumulativeByteCurve(ds.pref.PerDC, func(d analysis.DCTraffic) float64 { return d.MinRTTMs })
		res.PreferredShare[name] = ds.pref.PreferredByteShare
		res.PreferredIsMinRTT[name] = ds.pref.PreferredIsMinRTT
	}
	return res, nil
}

// Render formats Fig 7.
func (r *Fig07Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 7: CUMULATIVE BYTES vs DATA-CENTER RTT\n")
	for _, name := range topology.DatasetNames() {
		curve, ok := r.Curves[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-12s preferred share=%5.1f%% minRTT-preferred=%v first-steps:", name,
			r.PreferredShare[name]*100, r.PreferredIsMinRTT[name])
		for i, pt := range curve {
			if i >= 3 {
				break
			}
			fmt.Fprintf(&b, " (%.0fms,%.2f)", pt.X, pt.F)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Fig08Result is the cumulative byte fraction vs data-center distance.
type Fig08Result struct {
	Curves map[string][]struct{ X, F float64 }
	// ClosestFiveShare maps dataset -> byte share of the five
	// geographically closest data centers.
	ClosestFiveShare map[string]float64
}

// Fig08BytesByDistance computes the Fig 8 curves.
func (h *Harness) Fig08BytesByDistance() (*Fig08Result, error) {
	res := &Fig08Result{
		Curves:           make(map[string][]struct{ X, F float64 }),
		ClosestFiveShare: make(map[string]float64),
	}
	for _, name := range h.DatasetNames() {
		ds, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		curve := analysis.CumulativeByteCurve(ds.pref.PerDC, func(d analysis.DCTraffic) float64 { return d.DistanceKm })
		res.Curves[name] = curve
		if len(curve) >= 5 {
			res.ClosestFiveShare[name] = curve[4].F
		} else if len(curve) > 0 {
			res.ClosestFiveShare[name] = curve[len(curve)-1].F
		}
	}
	return res, nil
}

// Render formats Fig 8.
func (r *Fig08Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 8: CUMULATIVE BYTES vs DATA-CENTER DISTANCE\n")
	for _, name := range topology.DatasetNames() {
		curve, ok := r.Curves[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-12s closest-5 share=%5.1f%% first-steps:", name, r.ClosestFiveShare[name]*100)
		for i, pt := range curve {
			if i >= 3 {
				break
			}
			fmt.Fprintf(&b, " (%.0fkm,%.3f)", pt.X, pt.F)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Fig09Result is the CDF over one-hour samples of the fraction of
// video flows to non-preferred data centers.
type Fig09Result struct {
	Fracs map[string]*stats.CDF
}

// Fig09NonPreferredHourly computes the hourly non-preferred fractions.
func (h *Harness) Fig09NonPreferredHourly() (*Fig09Result, error) {
	res := &Fig09Result{Fracs: make(map[string]*stats.CDF)}
	for _, name := range h.DatasetNames() {
		ds, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		fracs, _, _, err := analysis.HourlyNonPreferredIter(h.videoIter(name), ds.dcmap, ds.pref.Preferred, h.in.Span)
		if err != nil {
			return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
		}
		res.Fracs[name] = stats.NewCDF(fracs)
	}
	return res, nil
}

// Render formats Fig 9.
func (r *Fig09Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 9: HOURLY FRACTION OF VIDEO FLOWS TO NON-PREFERRED DC (CDF)\n")
	for _, name := range topology.DatasetNames() {
		cdf, ok := r.Fracs[name]
		if !ok || cdf.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s median=%.3f p90=%.3f frac-hours>0.4=%.2f\n",
			name, cdf.Median(), cdf.Quantile(0.9), 1-cdf.At(0.4))
	}
	return b.String()
}

// Fig10Result is the session-pattern breakdown.
type Fig10Result struct {
	Single map[string]analysis.SingleFlowBreakdown
	Two    map[string]analysis.TwoFlowBreakdown
}

// Fig10SessionPatterns computes Figs 10a and 10b.
func (h *Harness) Fig10SessionPatterns() (*Fig10Result, error) {
	res := &Fig10Result{
		Single: make(map[string]analysis.SingleFlowBreakdown),
		Two:    make(map[string]analysis.TwoFlowBreakdown),
	}
	for _, name := range h.DatasetNames() {
		ds, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		one, two := ds.tally.Breakdown()
		res.Single[name] = one
		res.Two[name] = two
	}
	return res, nil
}

// Render formats Fig 10.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 10a: 1-FLOW SESSIONS (fraction of all sessions)\n")
	for _, name := range topology.DatasetNames() {
		one, ok := r.Single[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-12s preferred=%.3f non-preferred=%.3f\n", name, one.Preferred, one.NonPreferred)
	}
	fmt.Fprintf(&b, "FIG 10b: 2-FLOW SESSIONS (fraction of all sessions)\n")
	for _, name := range topology.DatasetNames() {
		two, ok := r.Two[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-12s PP=%.3f PN=%.3f NP=%.3f NN=%.3f\n",
			name, two.PrefPref, two.PrefNonPref, two.NonPrefPref, two.NonPrefNonPref)
	}
	return b.String()
}

// Fig11Result is the EU2 diurnal view: hourly fraction of video flows
// served by the (local, preferred) data center plus hourly volumes.
type Fig11Result struct {
	LocalFrac []float64 // per hour; -1 when the hour had no traffic
	Flows     []float64 // per hour
}

// Fig11EU2Diurnal computes the EU2 time series.
func (h *Harness) Fig11EU2Diurnal() (*Fig11Result, error) {
	ds, err := h.Dataset(topology.DatasetEU2)
	if err != nil {
		return nil, err
	}
	_, all, nonPref, err := analysis.HourlyNonPreferredIter(h.videoIter(topology.DatasetEU2), ds.dcmap, ds.pref.Preferred, h.in.Span)
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", topology.DatasetEU2, err)
	}
	res := &Fig11Result{}
	for i := 0; i < all.N(); i++ {
		res.Flows = append(res.Flows, all.Bin(i))
		if all.Bin(i) > 0 {
			res.LocalFrac = append(res.LocalFrac, 1-nonPref.Bin(i)/all.Bin(i))
		} else {
			res.LocalFrac = append(res.LocalFrac, -1)
		}
	}
	return res, nil
}

// DayNightLocalFrac returns the mean local fraction over peak hours
// (18-23h) and night hours (2-7h).
func (r *Fig11Result) DayNightLocalFrac() (day, night float64) {
	var daySum, nightSum float64
	var dayN, nightN int
	for i, f := range r.LocalFrac {
		if f < 0 {
			continue
		}
		h := i % 24
		if h >= 18 && h <= 23 {
			daySum += f
			dayN++
		}
		if h >= 2 && h <= 7 {
			nightSum += f
			nightN++
		}
	}
	if dayN > 0 {
		day = daySum / float64(dayN)
	}
	if nightN > 0 {
		night = nightSum / float64(nightN)
	}
	return day, night
}

// Render formats Fig 11.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	day, night := r.DayNightLocalFrac()
	maxFlows := 0.0
	for _, f := range r.Flows {
		if f > maxFlows {
			maxFlows = f
		}
	}
	fmt.Fprintf(&b, "FIG 11: EU2 LOCAL-DC FRACTION OVER TIME\n")
	fmt.Fprintf(&b, "peak-hours local frac=%.2f  night local frac=%.2f  peak flows/hour=%.0f\n", day, night, maxFlows)
	return b.String()
}

// Fig12Result is the per-subnet accounting at US-Campus.
type Fig12Result struct {
	Shares []analysis.SubnetShare
}

// Fig12SubnetBias computes Fig 12.
func (h *Harness) Fig12SubnetBias() (*Fig12Result, error) {
	ds, err := h.Dataset(topology.DatasetUSCampus)
	if err != nil {
		return nil, err
	}
	var subnets []analysis.NamedPrefix
	for _, sn := range ds.vp.Subnets {
		subnets = append(subnets, analysis.NamedPrefix{Name: sn.Name, Prefix: sn.Prefix})
	}
	shares, err := analysis.BySubnetIter(h.videoIter(topology.DatasetUSCampus), ds.dcmap, ds.pref.Preferred, subnets)
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", topology.DatasetUSCampus, err)
	}
	return &Fig12Result{Shares: shares}, nil
}

// Render formats Fig 12.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 12: US-CAMPUS INTERNAL SUBNETS (shares of flows)\n")
	for _, s := range r.Shares {
		fmt.Fprintf(&b, "%-8s all=%5.1f%%  of-non-preferred=%5.1f%%\n", s.Name, s.AllFrac*100, s.NonPrefFrac*100)
	}
	return b.String()
}

// Fig13Result is the distribution of per-video non-preferred access
// counts.
type Fig13Result struct {
	Counts map[string]*stats.CDF
	// ExactlyOnce maps dataset -> fraction of such videos fetched from
	// a non-preferred DC exactly once.
	ExactlyOnce map[string]float64
	// TopVideos maps dataset -> the videos with the most non-preferred
	// accesses (feeding Fig 14).
	TopVideos map[string][]analysis.VideoNonPrefCount
}

// Fig13VideoNonPref computes Fig 13.
func (h *Harness) Fig13VideoNonPref() (*Fig13Result, error) {
	res := &Fig13Result{
		Counts:      make(map[string]*stats.CDF),
		ExactlyOnce: make(map[string]float64),
		TopVideos:   make(map[string][]analysis.VideoNonPrefCount),
	}
	for _, name := range h.DatasetNames() {
		ds, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		counts := ds.nonPrefVideos
		cdf := &stats.CDF{}
		once := 0
		for _, c := range counts {
			cdf.Add(float64(c.Count))
			if c.Count == 1 {
				once++
			}
		}
		res.Counts[name] = cdf
		if len(counts) > 0 {
			res.ExactlyOnce[name] = float64(once) / float64(len(counts))
		}
		top := counts
		if len(top) > 4 {
			top = top[:4]
		}
		res.TopVideos[name] = top
	}
	return res, nil
}

// Render formats Fig 13.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 13: REQUESTS PER VIDEO TO NON-PREFERRED DCs (CDF)\n")
	for _, name := range topology.DatasetNames() {
		cdf, ok := r.Counts[name]
		if !ok || cdf.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s videos=%6d exactly-once=%5.1f%% max=%5.0f\n",
			name, cdf.Len(), r.ExactlyOnce[name]*100, cdf.Max())
	}
	return b.String()
}

// Fig14Result is the hourly load of the top-4 hot videos at EU1-ADSL.
type Fig14Result struct {
	Videos []Fig14Video
}

// Fig14Video is one panel.
type Fig14Video struct {
	VideoID capture.VideoID
	All     []float64
	NonPref []float64
}

// Fig14HotVideos computes Fig 14.
func (h *Harness) Fig14HotVideos() (*Fig14Result, error) {
	ds, err := h.Dataset(topology.DatasetEU1ADSL)
	if err != nil {
		return nil, err
	}
	counts := ds.nonPrefVideos
	res := &Fig14Result{}
	for i := 0; i < 4 && i < len(counts); i++ {
		all, nonPref, err := analysis.VideoHourlySeriesIter(h.videoIter(topology.DatasetEU1ADSL),
			ds.dcmap, ds.pref.Preferred, counts[i].VideoID, h.in.Span)
		if err != nil {
			return nil, fmt.Errorf("experiments: scanning %s: %w", topology.DatasetEU1ADSL, err)
		}
		res.Videos = append(res.Videos, Fig14Video{
			VideoID: counts[i].VideoID,
			All:     all.Values(),
			NonPref: nonPref.Values(),
		})
	}
	return res, nil
}

// Render formats Fig 14.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 14: TOP-4 HOT VIDEOS AT EU1-ADSL (hourly)\n")
	for i, v := range r.Videos {
		peakAll, peakNon, peakHour := 0.0, 0.0, 0
		var tot, totNon float64
		for h := range v.All {
			tot += v.All[h]
			totNon += v.NonPref[h]
			if v.All[h] > peakAll {
				peakAll, peakHour = v.All[h], h
			}
			if v.NonPref[h] > peakNon {
				peakNon = v.NonPref[h]
			}
		}
		fmt.Fprintf(&b, "video%d %s total=%5.0f non-pref=%5.0f peak=%4.0f/h at hour %3d\n",
			i+1, v.VideoID, tot, totNon, peakAll, peakHour)
	}
	return b.String()
}

// Fig15Result is the average/maximum per-server hourly request count
// in the EU1-ADSL preferred data center.
type Fig15Result struct {
	Avg, Max []float64
}

// Fig15ServerLoad computes Fig 15. Requests include control flows: a
// server that answers with a redirect still handled the request.
func (h *Harness) Fig15ServerLoad() (*Fig15Result, error) {
	ds, err := h.Dataset(topology.DatasetEU1ADSL)
	if err != nil {
		return nil, err
	}
	avg, max, err := analysis.ServerLoadStatsIter(h.googleIter(topology.DatasetEU1ADSL), ds.dcmap, ds.pref.Preferred, h.in.Span)
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", topology.DatasetEU1ADSL, err)
	}
	return &Fig15Result{Avg: avg, Max: max}, nil
}

// PeakRatio returns the largest max/avg ratio over hours with traffic.
func (r *Fig15Result) PeakRatio() float64 {
	best := 0.0
	for i := range r.Avg {
		if r.Avg[i] > 0 {
			if ratio := r.Max[i] / r.Avg[i]; ratio > best {
				best = ratio
			}
		}
	}
	return best
}

// Render formats Fig 15.
func (r *Fig15Result) Render() string {
	var b strings.Builder
	peakAvg, peakMax := 0.0, 0.0
	for i := range r.Avg {
		if r.Avg[i] > peakAvg {
			peakAvg = r.Avg[i]
		}
		if r.Max[i] > peakMax {
			peakMax = r.Max[i]
		}
	}
	fmt.Fprintf(&b, "FIG 15: PER-SERVER LOAD IN EU1-ADSL PREFERRED DC\n")
	fmt.Fprintf(&b, "peak avg=%.1f req/h  peak max=%.0f req/h  max/avg ratio up to %.1f\n",
		peakAvg, peakMax, r.PeakRatio())
	return b.String()
}

// Fig16Result is the hourly session-pattern breakdown at the server
// handling the hottest video.
type Fig16Result struct {
	Pattern analysis.ServerSessionPattern
	Server  string
}

// Fig16Video1Server computes Fig 16, streaming both passes: the
// video1-server election over the video subset, then the session
// patterns at that server over the start-ordered Google stream.
func (h *Harness) Fig16Video1Server() (*Fig16Result, error) {
	name := topology.DatasetEU1ADSL
	ds, err := h.Dataset(name)
	if err != nil {
		return nil, err
	}
	counts := ds.nonPrefVideos
	if len(counts) == 0 {
		return nil, fmt.Errorf("experiments: no non-preferred videos at EU1-ADSL")
	}
	video1 := counts[0].VideoID
	// The server "handling video1" in the preferred DC: the preferred
	// DC server carrying most of video1's flows.
	perServer := make(map[uint32]int)
	it := h.videoIter(name)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r.VideoID != video1 {
			continue
		}
		if dc, ok := ds.dcmap.DCOf(r.Server); ok && dc == ds.pref.Preferred {
			perServer[uint32(r.Server)]++
		}
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", name, err)
	}
	var best uint32
	bestN := -1
	for srv, n := range perServer {
		if n > bestN || (n == bestN && srv < best) {
			best, bestN = srv, n
		}
	}
	if bestN < 0 {
		// Possible under non-paper selection policies (e.g. pure
		// proximity): the hottest non-preferred video may never touch
		// the preferred DC at all. Render an explicit empty pattern
		// instead of failing the suite.
		return &Fig16Result{
			Pattern: analysis.NewServerSessionPattern(h.in.Span),
			Server:  "none (video1 never served by preferred DC)",
		}, nil
	}
	srvAddr := ipAddrFromU32(best)
	googleStart, err := h.googleStartSource(name)
	if err != nil {
		return nil, err
	}
	pattern := analysis.NewServerSessionPattern(h.in.Span)
	err = analysis.StreamSessions(googleStart(), time.Second, func(s analysis.Session) {
		pattern.Add(s, ds.dcmap, ds.pref.Preferred, srvAddr)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sessionizing %s: %w", name, err)
	}
	return &Fig16Result{Pattern: pattern, Server: srvAddr.String()}, nil
}

// Render formats Fig 16.
func (r *Fig16Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 16: SESSIONS/HOUR AT VIDEO1'S SERVER (%s)\n", r.Server)
	fmt.Fprintf(&b, "all-preferred total=%.0f  first-pref-then-redirect total=%.0f  others total=%.0f\n",
		r.Pattern.AllPreferred.Total(), r.Pattern.FirstPrefOnly.Total(), r.Pattern.Others.Total())
	return b.String()
}

// Fig17Result is one PlanetLab node's RTT samples over rounds.
type Fig17Result struct {
	Node    probe.PLNode
	Samples []probe.PLSample
}

// Fig18Result is the CDF of RTT1/RTT2 ratios across PlanetLab nodes.
type Fig18Result struct {
	Ratios *stats.CDF
	Result *probe.PLResult
}

// PlanetLab runs the §VII-C active experiment and derives Figs 17/18.
// Every invocation uploads a distinct fresh video (pull-through makes
// a re-used video warm everywhere, which would erase the first-access
// penalty the experiment measures). Invocations serialize on a
// dedicated mutex: the experiment deliberately mutates the shared
// placement (upload + pull-through), so runs claim videos and mutate
// state in arrival order.
func (h *Harness) PlanetLab() (*Fig17Result, *Fig18Result, error) {
	h.plMu.Lock()
	defer h.plMu.Unlock()
	run := h.plRuns
	h.plRuns++
	cfg := probe.DefaultPlanetLabConfig()
	cfg.Video = content.VideoID(h.in.Catalog.N() - 1 - run)
	if !h.in.Catalog.IsTail(cfg.Video) {
		cfg.Video = content.VideoID(h.in.Catalog.N() - 1) // wrapped: reuse the last
	}
	res, err := probe.RunPlanetLab(h.in.World, h.in.Catalog, h.in.Placement,
		cfg, stats.NewRNG(h.in.Seed).Fork("planetlab"))
	if err != nil {
		return nil, nil, err
	}
	// Fig 17 displays the node with the most dramatic first-access
	// penalty (the paper shows a California node served first from the
	// Netherlands).
	bestNode, bestRatio := 0, 0.0
	for n := range res.Nodes {
		series := res.NodeSeries(n)
		if len(series) >= 2 && series[1].RTTMs > 0 {
			if ratio := series[0].RTTMs / series[1].RTTMs; ratio > bestRatio {
				bestRatio, bestNode = ratio, n
			}
		}
	}
	fig17 := &Fig17Result{Node: res.Nodes[bestNode], Samples: res.NodeSeries(bestNode)}
	fig18 := &Fig18Result{Ratios: stats.NewCDF(res.RTTRatios()), Result: res}
	return fig17, fig18, nil
}

// Render formats Fig 17.
func (r *Fig17Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 17: RTT PER 30-MIN SAMPLE, NODE %s\n", r.Node.Name)
	for i, s := range r.Samples {
		if i < 4 || i == len(r.Samples)-1 {
			fmt.Fprintf(&b, "sample %2d: %.0fms (DC %d)\n", s.Round, s.RTTMs, s.FromDC)
		}
	}
	return b.String()
}

// Render formats Fig 18.
func (r *Fig18Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 18: RTT1/RTT2 ACROSS %d NODES (CDF)\n", r.Ratios.Len())
	fmt.Fprintf(&b, "frac ratio>1: %.2f  frac ratio>10: %.2f  median=%.2f\n",
		1-r.Ratios.At(1.0000001), 1-r.Ratios.At(10), r.Ratios.Median())
	return b.String()
}

// ipAddrFromU32 rebuilds an address from its stored key.
func ipAddrFromU32(v uint32) ipnet.Addr { return ipnet.Addr(v) }
