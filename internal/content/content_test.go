package content

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := NewCatalog(Config{
		N: 10000, ZipfExponent: 1, TailRank: 4000, VOTDShare: 0.05, Days: 7,
		MedianDuration: 150 * time.Second, DurationSigma: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCatalogValidation(t *testing.T) {
	base := Config{N: 10, ZipfExponent: 1, TailRank: 5, VOTDShare: 0.1, Days: 1,
		MedianDuration: time.Minute, DurationSigma: 0.5}
	bad := base
	bad.N = 0
	if _, err := NewCatalog(bad); err == nil {
		t.Error("N=0 must fail")
	}
	bad = base
	bad.TailRank = 11
	if _, err := NewCatalog(bad); err == nil {
		t.Error("TailRank > N must fail")
	}
	bad = base
	bad.VOTDShare = 1.0
	if _, err := NewCatalog(bad); err == nil {
		t.Error("VOTDShare=1 must fail")
	}
	bad = base
	bad.VOTDShare, bad.Days = 0.5, 0
	if _, err := NewCatalog(bad); err == nil {
		t.Error("VOTDShare>0 with Days=0 must fail")
	}
	bad.VOTDShare = 0
	if _, err := NewCatalog(bad); err != nil {
		t.Errorf("VOTDShare=0 with Days=0 must build: %v", err)
	}
}

func TestDefaultConfigBuilds(t *testing.T) {
	if _, err := NewCatalog(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestIsTail(t *testing.T) {
	c := testCatalog(t)
	if c.IsTail(0) || c.IsTail(3999) {
		t.Error("head videos classified as tail")
	}
	if !c.IsTail(4000) || !c.IsTail(9999) {
		t.Error("tail videos not classified as tail")
	}
}

func TestVideoOfDaySchedule(t *testing.T) {
	c := testCatalog(t)
	seen := make(map[VideoID]bool)
	for d := 0; d < 7; d++ {
		v := c.VideoOfDay(d)
		if c.IsTail(v) {
			t.Errorf("VOTD day %d is a tail video", d)
		}
		if seen[v] {
			t.Errorf("VOTD day %d repeats video %d", d, v)
		}
		seen[v] = true
	}
	// Clamping.
	if c.VideoOfDay(-1) != c.VideoOfDay(0) {
		t.Error("negative day must clamp")
	}
	if c.VideoOfDay(99) != c.VideoOfDay(6) {
		t.Error("overflow day must clamp")
	}
}

func TestSampleVOTDBoost(t *testing.T) {
	c := testCatalog(t)
	g := stats.NewRNG(1)
	day3 := 3*24*time.Hour + 5*time.Hour
	votd := c.VideoOfDay(3)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if c.Sample(g, day3) == votd {
			hits++
		}
	}
	frac := float64(hits) / n
	// VOTDShare 0.05 plus the video's tiny organic mass.
	if frac < 0.04 || frac > 0.08 {
		t.Errorf("VOTD hit fraction = %.3f, want ~0.05", frac)
	}
	// Outside its day, the video is back to organic popularity.
	hits = 0
	for i := 0; i < n; i++ {
		if c.Sample(g, 24*time.Hour) == votd {
			hits++
		}
	}
	if frac2 := float64(hits) / n; frac2 > 0.01 {
		t.Errorf("off-day VOTD fraction = %.3f, want ~0", frac2)
	}
}

func TestSampleInRange(t *testing.T) {
	c := testCatalog(t)
	g := stats.NewRNG(2)
	for i := 0; i < 5000; i++ {
		v := c.Sample(g, time.Duration(i)*time.Minute)
		if v < 0 || int(v) >= c.N() {
			t.Fatalf("sample out of range: %d", v)
		}
	}
}

func TestDurationDeterministicAndBounded(t *testing.T) {
	c := testCatalog(t)
	for v := VideoID(0); v < 2000; v++ {
		d1, d2 := c.Duration(v), c.Duration(v)
		if d1 != d2 {
			t.Fatal("duration not deterministic")
		}
		if d1 < 20*time.Second || d1 > 30*time.Minute {
			t.Fatalf("duration %v out of bounds", d1)
		}
	}
}

func TestDurationMedianRoughlyConfigured(t *testing.T) {
	c := testCatalog(t)
	cdf := &stats.CDF{}
	for v := VideoID(0); v < 5000; v++ {
		cdf.Add(c.Duration(v).Seconds())
	}
	med := cdf.Median()
	if med < 100 || med > 220 {
		t.Errorf("median duration = %.0fs, want ~150s", med)
	}
}

func TestSizeScalesWithResolution(t *testing.T) {
	c := testCatalog(t)
	d := c.Duration(42)
	s360 := Res360p.SizeBytes(d)
	s480 := Res480p.SizeBytes(d)
	s720 := Res720p.SizeBytes(d)
	if !(s360 < s480 && s480 < s720) {
		t.Errorf("sizes not ordered: %d %d %d", s360, s480, s720)
	}
	if s360 <= 0 {
		t.Error("non-positive size")
	}
}

// TestSizeFromOneDurationMatchesCatalogSize is the oracle for deriving
// a video flow's size from the Duration it already computed: for 10^5
// videos of the paper catalog at each resolution, r.SizeBytes of one
// Duration must equal the ID-keyed size it replaced, which computed
// the Duration again.
func TestSizeFromOneDurationMatchesCatalogSize(t *testing.T) {
	c, err := NewCatalog(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	catalogSize := func(v VideoID, r Resolution) int64 {
		return int64(c.Duration(v).Seconds() * r.bitrateBps() / 8)
	}
	for _, r := range []Resolution{Res360p, Res480p, Res720p} {
		for v := VideoID(0); v < 100_000; v++ {
			if got, want := r.SizeBytes(c.Duration(v)), catalogSize(v, r); got != want {
				t.Fatalf("video %d at %v: SizeBytes(Duration) = %d, catalog size = %d", v, r, got, want)
			}
		}
	}
}

func TestSampleResolutionMix(t *testing.T) {
	c := testCatalog(t)
	g := stats.NewRNG(3)
	counts := map[Resolution]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[c.SampleResolution(g)]++
	}
	if f := float64(counts[Res360p]) / n; f < 0.65 || f > 0.75 {
		t.Errorf("360p fraction = %.3f", f)
	}
	if f := float64(counts[Res720p]) / n; f < 0.05 || f > 0.12 {
		t.Errorf("720p fraction = %.3f", f)
	}
}

func TestStringIDFormat(t *testing.T) {
	id := StringID(12345)
	if len(id) != 11 {
		t.Fatalf("StringID length = %d, want 11", len(id))
	}
	for _, r := range id {
		ok := (r >= 'A' && r <= 'Z') || (r >= 'a' && r <= 'z') ||
			(r >= '0' && r <= '9') || r == '-' || r == '_'
		if !ok {
			t.Fatalf("invalid character %q in %q", r, id)
		}
	}
}

func TestStringIDInjective(t *testing.T) {
	seen := make(map[[11]byte]VideoID, 100000)
	for v := VideoID(0); v < 100000; v++ {
		id := StringID(v)
		if prev, ok := seen[id]; ok {
			t.Fatalf("collision: videos %d and %d both map to %q", prev, v, id)
		}
		seen[id] = v
	}
}

func TestStringIDInjectiveProperty(t *testing.T) {
	f := func(a, b int32) bool {
		if a == b {
			return true
		}
		return StringID(VideoID(a)) != StringID(VideoID(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResolutionRoundTrip(t *testing.T) {
	for _, r := range []Resolution{Res360p, Res480p, Res720p} {
		got, err := ParseResolution(r.String())
		if err != nil || got != r {
			t.Errorf("round trip %v failed: %v %v", r, got, err)
		}
	}
	if _, err := ParseResolution("1080p"); err == nil {
		t.Error("unknown resolution must fail to parse")
	}
	if Resolution(0).String() != "unknown" {
		t.Error("zero resolution String broken")
	}
}

func TestZipfHeadDominates(t *testing.T) {
	c := testCatalog(t)
	g := stats.NewRNG(4)
	head := 0
	const n = 50000
	for i := 0; i < n; i++ {
		// Sample far from any VOTD window influence by using share of
		// organic draws only; VOTD is itself a head video anyway.
		if int(c.Sample(g, 0)) < 1000 {
			head++
		}
	}
	frac := float64(head) / n
	// Zipf(1) over 10k: mass of top 1000 = H(1000)/H(10000) ~ 0.75.
	if frac < 0.65 || frac > 0.85 {
		t.Errorf("head mass = %.3f, want ~0.75", frac)
	}
}
