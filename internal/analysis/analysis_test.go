package analysis

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/asdb"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// rec builds a flow record for tests.
func rec(client, server string, start, end time.Duration, bytes int64, video string) capture.FlowRecord {
	return capture.FlowRecord{
		Client:     ipnet.MustParseAddr(client),
		Server:     ipnet.MustParseAddr(server),
		Start:      start,
		End:        end,
		Bytes:      bytes,
		VideoID:    vid(video),
		Resolution: content.Res360p,
	}
}

// vid returns a short test name as a VideoID, zero-padded to 11 bytes;
// padding keeps the names' string order.
func vid(name string) capture.VideoID {
	var v capture.VideoID
	copy(v[:], name)
	return v
}

// collect drains an iterator, failing the test on a stream error.
func collect(t *testing.T, it capture.Iterator) []capture.FlowRecord {
	t.Helper()
	recs, err := capture.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// sessionize runs StreamSessions over recs in start order and returns
// the sessions in emission order.
func sessionize(t *testing.T, recs []capture.FlowRecord, gap time.Duration) []Session {
	t.Helper()
	var out []Session
	if err := StreamSessions(sortedIter(recs), gap, func(s Session) { out = append(out, s) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSplitFlows(t *testing.T) {
	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 500, "v1"),
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 999, "v1"),
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 1000, "v1"),
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 5_000_000, "v1"),
	}
	video := collect(t, VideoIter(capture.IterSlice(recs)))
	if len(video) != 2 || video[0].Bytes != 1000 || video[1].Bytes != 5_000_000 {
		t.Fatalf("video flows = %+v; want the 1000-byte and 5 MB flows", video)
	}
	for _, r := range recs[:2] {
		if IsVideoFlow(r) {
			t.Error("control flow classified as video")
		}
	}
}

func TestSummarize(t *testing.T) {
	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 100, "v1"),
		rec("10.0.0.2", "1.1.1.2", 0, time.Second, 200, "v2"),
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 300, "v3"),
	}
	s := censusOf(nil, 0, recs).Summary()
	if s.Flows != 3 || s.Bytes != 600 || s.Servers != 2 || s.Clients != 2 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestSessionizeGroupsRedirectChains(t *testing.T) {
	// Control flow then video flow 200ms later: one session.
	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, 50*time.Millisecond, 400, "v1"),
		rec("10.0.0.1", "2.2.2.2", 250*time.Millisecond, 60*time.Second, 5e6, "v1"),
	}
	sessions := sessionize(t, recs, time.Second)
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	if len(sessions[0].Flows) != 2 {
		t.Fatalf("flows in session = %d, want 2", len(sessions[0].Flows))
	}
	if sessions[0].Flows[0].Server.String() != "1.1.1.1" {
		t.Error("flows not ordered by start")
	}
}

func TestSessionizeSplitsOnGap(t *testing.T) {
	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 5e6, "v1"),
		rec("10.0.0.1", "1.1.1.1", 3*time.Second, 5*time.Second, 5e6, "v1"),
	}
	if got := len(sessionize(t, recs, time.Second)); got != 2 {
		t.Errorf("T=1s sessions = %d, want 2", got)
	}
	if got := len(sessionize(t, recs, 5*time.Second)); got != 1 {
		t.Errorf("T=5s sessions = %d, want 1", got)
	}
}

func TestSessionizeSeparatesClientsAndVideos(t *testing.T) {
	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 5e6, "v1"),
		rec("10.0.0.2", "1.1.1.1", 0, time.Second, 5e6, "v1"),
		rec("10.0.0.1", "1.1.1.1", 0, time.Second, 5e6, "v2"),
	}
	if got := len(sessionize(t, recs, time.Second)); got != 3 {
		t.Errorf("sessions = %d, want 3", got)
	}
}

func TestSessionizeOverlappingFlows(t *testing.T) {
	// A long flow swallowing a short one: still one session even
	// though the short flow ends long before the long one.
	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, 100*time.Second, 5e6, "v1"),
		rec("10.0.0.1", "2.2.2.2", 10*time.Second, 12*time.Second, 5e6, "v1"),
		rec("10.0.0.1", "2.2.2.2", 99*time.Second, 120*time.Second, 5e6, "v1"),
	}
	if got := len(sessionize(t, recs, time.Second)); got != 1 {
		t.Errorf("sessions = %d, want 1 (latest-end tracking)", got)
	}
}

func TestSessionizeMonotoneInT(t *testing.T) {
	// Property: a larger gap can only produce fewer or equal sessions.
	f := func(startsRaw []uint16) bool {
		var recs []capture.FlowRecord
		for _, s := range startsRaw {
			start := time.Duration(s) * 100 * time.Millisecond
			recs = append(recs, rec("10.0.0.1", "1.1.1.1", start, start+2*time.Second, 5e6, "v1"))
		}
		if len(recs) == 0 {
			return true
		}
		n1 := len(sessionize(t, recs, time.Second))
		n2 := len(sessionize(t, recs, 10*time.Second))
		n3 := len(sessionize(t, recs, 100*time.Second))
		return n1 >= n2 && n2 >= n3 && n3 >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSessionizeConservesFlows(t *testing.T) {
	f := func(startsRaw []uint16, clients []bool) bool {
		var recs []capture.FlowRecord
		for i, s := range startsRaw {
			client := "10.0.0.1"
			if i < len(clients) && clients[i] {
				client = "10.0.0.2"
			}
			start := time.Duration(s) * time.Second
			recs = append(recs, rec(client, "1.1.1.1", start, start+time.Second, 5e6, "v1"))
		}
		total := 0
		for _, s := range sessionize(t, recs, time.Second) {
			total += len(s.Flows)
		}
		return total == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFlowsPerSessionHistogram(t *testing.T) {
	sessions := []Session{
		{Flows: make([]capture.FlowRecord, 1)},
		{Flows: make([]capture.FlowRecord, 1)},
		{Flows: make([]capture.FlowRecord, 2)},
		{Flows: make([]capture.FlowRecord, 15)},
	}
	tally := NewSessionTally(10)
	for _, s := range sessions {
		tally.Add(s, nil, 0)
	}
	hist := tally.Histogram()
	if tally.Sessions() != 4 || hist[0] != 0.5 || hist[1] != 0.25 || hist[9] != 0.25 {
		t.Errorf("sessions = %d, hist = %v", tally.Sessions(), hist)
	}
	if len(NewSessionTally(10).Histogram()) != 10 {
		t.Error("empty histogram must still have buckets")
	}
}

func TestBuildDCMapMergesSlash24(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
		ipnet.MustParseAddr("1.1.1.2"): geo.Paris.Point, // same /24, crazy estimate
		ipnet.MustParseAddr("2.2.2.1"): geo.NewYork.Point,
	}
	m := BuildDCMap(locs, 100)
	if m.NumClusters() != 2 {
		t.Fatalf("clusters = %d, want 2", m.NumClusters())
	}
	a, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	b, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.2"))
	if a != b {
		t.Error("same /24 must map to the same cluster")
	}
}

func TestBuildDCMapMergesNearbyCities(t *testing.T) {
	nearMilan := geo.Point{Lat: geo.Milan.Point.Lat + 0.3, Lon: geo.Milan.Point.Lon}
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
		ipnet.MustParseAddr("2.2.2.1"): nearMilan, // ~33 km away
		ipnet.MustParseAddr("3.3.3.1"): geo.NewYork.Point,
	}
	m := BuildDCMap(locs, 100)
	if m.NumClusters() != 2 {
		t.Fatalf("clusters = %d, want 2 (Milan pair merged)", m.NumClusters())
	}
	a, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	b, _ := m.DCOf(ipnet.MustParseAddr("2.2.2.1"))
	if a != b {
		t.Error("nearby /24s must merge")
	}
}

func TestDCOfUnknown(t *testing.T) {
	m := BuildDCMap(map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
	}, 100)
	if _, ok := m.DCOf(ipnet.MustParseAddr("9.9.9.9")); ok {
		t.Error("unknown address must miss")
	}
	// An ungeolocated sibling in a known /24 aggregates with it.
	if _, ok := m.DCOf(ipnet.MustParseAddr("1.1.1.77")); !ok {
		// Only the /24 network address is indexed as fallback; the
		// sibling resolves through its Slash24.
		t.Skip("sibling fallback relies on /24 network key")
	}
}

func TestBreakdownByAS(t *testing.T) {
	reg := asdb.NewRegistry()
	reg.Register(ipnet.MustParsePrefix("1.0.0.0/8"), asdb.AS{Number: asdb.ASGoogle, Name: "Google"})
	reg.Register(ipnet.MustParsePrefix("2.0.0.0/8"), asdb.AS{Number: asdb.ASYouTubeEU, Name: "YT-EU"})
	reg.Register(ipnet.MustParsePrefix("3.0.0.0/8"), asdb.AS{Number: 5483, Name: "ISP"})
	reg.Register(ipnet.MustParsePrefix("4.0.0.0/8"), asdb.AS{Number: 1273, Name: "CW"})

	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, 1, 700, "v"),
		rec("10.0.0.1", "2.1.1.1", 0, 1, 200, "v"),
		rec("10.0.0.1", "3.1.1.1", 0, 1, 50, "v"),
		rec("10.0.0.1", "4.1.1.1", 0, 1, 50, "v"),
	}
	bd := censusOf(reg, 5483, recs).Breakdown()
	if bd.Google.ByteFrac != 0.7 || bd.YouTubeEU.ByteFrac != 0.2 ||
		bd.SameAS.ByteFrac != 0.05 || bd.Others.ByteFrac != 0.05 {
		t.Errorf("byte fractions: %+v", bd)
	}
	if bd.Google.ServerFrac != 0.25 {
		t.Errorf("server fraction: %+v", bd.Google)
	}
}

func TestGoogleFilter(t *testing.T) {
	reg := asdb.NewRegistry()
	reg.Register(ipnet.MustParsePrefix("1.0.0.0/8"), asdb.AS{Number: asdb.ASGoogle, Name: "Google"})
	reg.Register(ipnet.MustParsePrefix("2.0.0.0/8"), asdb.AS{Number: asdb.ASYouTubeEU, Name: "YT-EU"})
	reg.Register(ipnet.MustParsePrefix("3.0.0.0/8"), asdb.AS{Number: 5483, Name: "ISP"})

	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, 1, 700, "v"), // google: keep
		rec("10.0.0.1", "2.1.1.1", 0, 1, 200, "v"), // legacy: drop
		rec("10.0.0.1", "3.1.1.1", 0, 1, 50, "v"),  // same AS: keep
		rec("10.0.0.1", "9.1.1.1", 0, 1, 50, "v"),  // unrouted: drop
	}
	got := collect(t, GoogleIter(capture.IterSlice(recs), reg, 5483))
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[2] {
		t.Fatalf("filtered = %+v, want the Google and same-AS flows", got)
	}
}

func TestCountServersByContinent(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.NewYork.Point,
		ipnet.MustParseAddr("1.1.2.1"): geo.Milan.Point,
		ipnet.MustParseAddr("1.1.3.1"): geo.Tokyo.Point,
	}
	addrs := []ipnet.Addr{
		ipnet.MustParseAddr("1.1.1.1"),
		ipnet.MustParseAddr("1.1.2.1"),
		ipnet.MustParseAddr("1.1.3.1"),
		ipnet.MustParseAddr("8.8.8.8"), // no location
	}
	c := CountAddrsByContinent(addrs, locs)
	if c.NorthAmerica != 1 || c.Europe != 1 || c.Others != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestFindPreferredDominant(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
		ipnet.MustParseAddr("2.2.2.1"): geo.Frankfurt.Point,
	}
	m := BuildDCMap(locs, 100)
	var video []capture.FlowRecord
	for i := 0; i < 9; i++ {
		video = append(video, rec("10.0.0.1", "1.1.1.1", 0, 1, 1e6, "v"))
	}
	video = append(video, rec("10.0.0.1", "2.2.2.1", 0, 1, 1e6, "v"))
	rtts := map[ipnet.Addr]float64{
		ipnet.MustParseAddr("1.1.1.1"): 3,
		ipnet.MustParseAddr("2.2.2.1"): 9,
	}
	res, err := FindPreferredIter(capture.IterSlice(video), m, rtts, geo.Turin.Point)
	if err != nil {
		t.Fatal(err)
	}
	milan, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	if res.Preferred != milan {
		t.Errorf("preferred = %d, want Milan cluster %d", res.Preferred, milan)
	}
	if res.PreferredByteShare != 0.9 {
		t.Errorf("share = %f", res.PreferredByteShare)
	}
	if !res.PreferredIsMinRTT {
		t.Error("Milan is min-RTT, flag must be true")
	}
}

func TestFindPreferredEU2Rule(t *testing.T) {
	// No majority, two DCs dominate, the smaller-RTT one wins even
	// with fewer bytes (the paper's EU2 labelling).
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Budapest.Point,
		ipnet.MustParseAddr("2.2.2.1"): geo.Vienna.Point,
	}
	m := BuildDCMap(locs, 100)
	var video []capture.FlowRecord
	for i := 0; i < 40; i++ {
		video = append(video, rec("10.0.0.1", "1.1.1.1", 0, 1, 1e6, "v"))
	}
	for i := 0; i < 55; i++ {
		video = append(video, rec("10.0.0.1", "2.2.2.1", 0, 1, 1e6, "v"))
	}
	rtts := map[ipnet.Addr]float64{
		ipnet.MustParseAddr("1.1.1.1"): 2,
		ipnet.MustParseAddr("2.2.2.1"): 6,
	}
	res, err := FindPreferredIter(capture.IterSlice(video), m, rtts, geo.Budapest.Point)
	if err != nil {
		t.Fatal(err)
	}
	budapest, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	if res.Preferred != budapest {
		t.Errorf("preferred = %d, want Budapest (min-RTT of dominant pair)", res.Preferred)
	}
}

func TestFindPreferredEmpty(t *testing.T) {
	m := BuildDCMap(map[ipnet.Addr]geo.Point{}, 100)
	res, err := FindPreferredIter(capture.IterSlice(nil), m, nil, geo.Turin.Point)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preferred != -1 {
		t.Errorf("preferred of empty trace = %d, want -1", res.Preferred)
	}
}

func TestCumulativeByteCurve(t *testing.T) {
	perDC := []DCTraffic{
		{Cluster: 0, Bytes: 100, MinRTTMs: 30},
		{Cluster: 1, Bytes: 800, MinRTTMs: 5},
		{Cluster: 2, Bytes: 100, MinRTTMs: 90},
	}
	curve := CumulativeByteCurve(perDC, func(d DCTraffic) float64 { return d.MinRTTMs })
	if len(curve) != 3 {
		t.Fatalf("curve points = %d", len(curve))
	}
	if curve[0].X != 5 || curve[0].F != 0.8 {
		t.Errorf("first point = %+v", curve[0])
	}
	if curve[2].F != 1.0 {
		t.Errorf("curve must end at 1, got %f", curve[2].F)
	}
}

func TestBreakdownSessionsPatterns(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,  // preferred
		ipnet.MustParseAddr("2.2.2.1"): geo.Madrid.Point, // non-preferred
	}
	m := BuildDCMap(locs, 100)
	pref, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	sessions := []Session{
		{Flows: []capture.FlowRecord{rec("10.0.0.1", "1.1.1.1", 0, 1, 5e6, "a")}},
		{Flows: []capture.FlowRecord{rec("10.0.0.1", "2.2.2.1", 0, 1, 5e6, "b")}},
		{Flows: []capture.FlowRecord{
			rec("10.0.0.1", "1.1.1.1", 0, 1, 400, "c"),
			rec("10.0.0.1", "2.2.2.1", 2, 3, 5e6, "c"),
		}},
		{Flows: []capture.FlowRecord{
			rec("10.0.0.1", "1.1.1.1", 0, 1, 400, "d"),
			rec("10.0.0.1", "1.1.1.1", 2, 3, 5e6, "d"),
		}},
	}
	tally := NewSessionTally(0)
	for _, s := range sessions {
		tally.Add(s, m, pref)
	}
	one, two := tally.Breakdown()
	if one.Preferred != 0.25 || one.NonPreferred != 0.25 {
		t.Errorf("single breakdown = %+v", one)
	}
	if two.PrefNonPref != 0.25 || two.PrefPref != 0.25 || two.NonPrefPref != 0 || two.NonPrefNonPref != 0 {
		t.Errorf("two-flow breakdown = %+v", two)
	}
}

func TestHourlyNonPreferred(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
		ipnet.MustParseAddr("2.2.2.1"): geo.Madrid.Point,
	}
	m := BuildDCMap(locs, 100)
	pref, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	flows := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 10*time.Minute, 11*time.Minute, 5e6, "a"),
		rec("10.0.0.1", "2.2.2.1", 20*time.Minute, 21*time.Minute, 5e6, "b"),
		rec("10.0.0.1", "1.1.1.1", 70*time.Minute, 71*time.Minute, 5e6, "c"),
	}
	fracs, all, nonPref, err := HourlyNonPreferredIter(capture.IterSlice(flows), m, pref, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(fracs) != 2 {
		t.Fatalf("fracs = %v", fracs)
	}
	if fracs[0] != 0.5 || fracs[1] != 0 {
		t.Errorf("fracs = %v", fracs)
	}
	if all.Total() != 3 || nonPref.Total() != 1 {
		t.Errorf("bins: all=%v nonpref=%v", all.Total(), nonPref.Total())
	}
}

func TestBySubnet(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
		ipnet.MustParseAddr("2.2.2.1"): geo.Madrid.Point,
	}
	m := BuildDCMap(locs, 100)
	pref, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	subnets := []NamedPrefix{
		{Name: "Net-1", Prefix: ipnet.MustParsePrefix("10.0.0.0/24")},
		{Name: "Net-2", Prefix: ipnet.MustParsePrefix("10.0.1.0/24")},
	}
	flows := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 0, 1, 5e6, "a"),
		rec("10.0.0.2", "1.1.1.1", 0, 1, 5e6, "b"),
		rec("10.0.0.3", "2.2.2.1", 0, 1, 5e6, "c"),
		rec("10.0.1.1", "2.2.2.1", 0, 1, 5e6, "d"),
	}
	shares, err := BySubnetIter(capture.IterSlice(flows), m, pref, subnets)
	if err != nil {
		t.Fatal(err)
	}
	if shares[0].AllFrac != 0.75 || shares[1].AllFrac != 0.25 {
		t.Errorf("all shares: %+v", shares)
	}
	if shares[0].NonPrefFrac != 0.5 || shares[1].NonPrefFrac != 0.5 {
		t.Errorf("non-pref shares: %+v", shares)
	}
}

func TestNonPreferredPerVideo(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
		ipnet.MustParseAddr("2.2.2.1"): geo.Madrid.Point,
	}
	m := BuildDCMap(locs, 100)
	pref, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	flows := []capture.FlowRecord{
		rec("10.0.0.1", "2.2.2.1", 0, 1, 5e6, "hot"),
		rec("10.0.0.1", "2.2.2.1", 0, 1, 5e6, "hot"),
		rec("10.0.0.1", "2.2.2.1", 0, 1, 5e6, "once"),
		rec("10.0.0.1", "1.1.1.1", 0, 1, 5e6, "never"),
	}
	counts, err := NonPreferredPerVideoIter(capture.IterSlice(flows), m, pref)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 {
		t.Fatalf("counts = %+v", counts)
	}
	if counts[0].VideoID != vid("hot") || counts[0].Count != 2 {
		t.Errorf("top = %+v", counts[0])
	}
	if counts[1].VideoID != vid("once") || counts[1].Count != 1 {
		t.Errorf("second = %+v", counts[1])
	}
}

func TestServerLoadStats(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
		ipnet.MustParseAddr("1.1.1.2"): geo.Milan.Point,
	}
	m := BuildDCMap(locs, 100)
	pref, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	var flows []capture.FlowRecord
	for i := 0; i < 10; i++ {
		flows = append(flows, rec("10.0.0.1", "1.1.1.1", 0, 1, 5e6, "a"))
	}
	flows = append(flows, rec("10.0.0.1", "1.1.1.2", 0, 1, 5e6, "b"))
	avg, max, err := ServerLoadStatsIter(capture.IterSlice(flows), m, pref, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if max[0] != 10 {
		t.Errorf("max = %v", max)
	}
	if avg[0] != 5.5 {
		t.Errorf("avg = %v (2 servers, 11 flows)", avg)
	}
}

func TestSessionsAtServer(t *testing.T) {
	locs := map[ipnet.Addr]geo.Point{
		ipnet.MustParseAddr("1.1.1.1"): geo.Milan.Point,
		ipnet.MustParseAddr("2.2.2.1"): geo.Madrid.Point,
	}
	m := BuildDCMap(locs, 100)
	pref, _ := m.DCOf(ipnet.MustParseAddr("1.1.1.1"))
	target := ipnet.MustParseAddr("1.1.1.1")
	sessions := []Session{
		// All-preferred at target.
		{Flows: []capture.FlowRecord{rec("10.0.0.1", "1.1.1.1", 0, 1, 5e6, "a")}},
		// First preferred (target) then redirected.
		{Flows: []capture.FlowRecord{
			rec("10.0.0.2", "1.1.1.1", 0, 1, 400, "b"),
			rec("10.0.0.2", "2.2.2.1", 2, 3, 5e6, "b"),
		}},
		// Does not touch the target at all.
		{Flows: []capture.FlowRecord{rec("10.0.0.3", "2.2.2.1", 0, 1, 5e6, "c")}},
	}
	p := NewServerSessionPattern(time.Hour)
	for _, s := range sessions {
		p.Add(s, m, pref, target)
	}
	if p.AllPreferred.Total() != 1 || p.FirstPrefOnly.Total() != 1 || p.Others.Total() != 0 {
		t.Errorf("pattern totals = %v %v %v",
			p.AllPreferred.Total(), p.FirstPrefOnly.Total(), p.Others.Total())
	}
}
