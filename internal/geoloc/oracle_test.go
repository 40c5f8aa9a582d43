package geoloc

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// locateReference is Locate with every (cell, disc) pair decided by
// haversine alone: the grid search before the dot-product test. The
// fast path must return a bit-identical Region for every input.
func (c *CBG) locateReference(rtts []time.Duration) Region {
	type disc struct {
		center geo.Point
		radius float64
	}
	discs := make([]disc, 0, len(rtts))
	for i, rtt := range rtts {
		if i >= len(c.landmarks) || rtt <= 0 {
			continue
		}
		ms := rtt.Seconds() * 1000
		r := c.lines[i].SlopeKmPerMs*ms + c.lines[i].InterceptKm
		if phys := ms * maxSlopeKmPerMs; r > phys {
			r = phys
		}
		if r < 1 {
			r = 1
		}
		discs = append(discs, disc{center: c.landmarks[i].Loc, radius: r})
	}
	if len(discs) == 0 {
		return Region{Feasible: false}
	}
	sort.Slice(discs, func(i, j int) bool { return discs[i].radius < discs[j].radius })

	inAll := func(p geo.Point, slack float64) bool {
		for _, d := range discs {
			if geo.Distance(p, d.center) > d.radius*slack {
				return false
			}
		}
		return true
	}
	for _, slack := range []float64{1.0, 1.1, 1.25, 1.5, 2.0} {
		region, ok := gridRegionReference(discs[0].center, discs[0].radius*slack, func(p geo.Point) bool {
			return inAll(p, slack)
		})
		if ok {
			region.Feasible = slack == 1.0
			return region
		}
	}
	return Region{Centroid: discs[0].center, RadiusKm: discs[0].radius, Feasible: false}
}

// gridRegionReference is gridRegion with the feasibility test as a
// callback.
func gridRegionReference(center geo.Point, radius float64, feasible func(geo.Point) bool) (Region, bool) {
	const n = 26
	box := boxAround(center, radius)
	for pass := 0; pass < 2; pass++ {
		var latSum, lonSum float64
		var minLat, maxLat, minLon, maxLon float64
		count := 0
		dLat := (box.maxLat - box.minLat) / n
		dLon := (box.maxLon - box.minLon) / n
		if dLat <= 0 || dLon <= 0 {
			return Region{}, false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p := geo.Point{
					Lat: box.minLat + (float64(i)+0.5)*dLat,
					Lon: box.minLon + (float64(j)+0.5)*dLon,
				}
				if !feasible(p) {
					continue
				}
				if count == 0 {
					minLat, maxLat, minLon, maxLon = p.Lat, p.Lat, p.Lon, p.Lon
				} else {
					minLat = math.Min(minLat, p.Lat)
					maxLat = math.Max(maxLat, p.Lat)
					minLon = math.Min(minLon, p.Lon)
					maxLon = math.Max(maxLon, p.Lon)
				}
				latSum += p.Lat
				lonSum += p.Lon
				count++
			}
		}
		if count == 0 {
			return Region{}, false
		}
		centroid := geo.Point{Lat: latSum / float64(count), Lon: lonSum / float64(count)}
		cellKm2 := (dLat * 111.19) * (dLon * 111.19 * math.Cos(centroid.Lat*math.Pi/180))
		area := float64(count) * math.Abs(cellKm2)
		region := Region{Centroid: centroid, RadiusKm: math.Sqrt(area / math.Pi), Feasible: true}
		if pass == 1 || count > n*n/4 {
			return region, true
		}
		box = latLonBox{
			minLat: minLat - dLat, maxLat: maxLat + dLat,
			minLon: minLon - dLon, maxLon: maxLon + dLon,
		}
	}
	return Region{}, false
}

// regionBits renders a Region by the bits of its floats, so two
// regions compare equal exactly when they are bit-identical.
func regionBits(r Region) string {
	return fmt.Sprintf("%016x %016x %016x %t", math.Float64bits(r.Centroid.Lat),
		math.Float64bits(r.Centroid.Lon), math.Float64bits(r.RadiusKm), r.Feasible)
}

// checkMatchesReference fails t when Locate and locateReference differ.
func checkMatchesReference(t *testing.T, name string, c *CBG, rtts []time.Duration) {
	t.Helper()
	got, want := c.Locate(rtts), c.locateReference(rtts)
	if regionBits(got) != regionBits(want) {
		t.Errorf("%s: Locate = %+v, reference = %+v\nrtts %v", name, got, want, rtts)
	}
}

// unitLineCBG places landmarks at locs with the bestline
// distance = 100 km/ms · RTT, so an RTT of r/100 ms is a disc of
// radius r km exactly (the physical bound coincides with the line).
func unitLineCBG(locs []geo.Point) *CBG {
	lms := make([]LandmarkInfo, len(locs))
	lines := make([]Bestline, len(locs))
	for i, p := range locs {
		lms[i] = LandmarkInfo{Name: fmt.Sprintf("lm%d", i), Loc: p}
		lines[i] = Bestline{SlopeKmPerMs: maxSlopeKmPerMs}
	}
	return newCBG(lms, lines)
}

// rttForRadius is the RTT a unitLineCBG landmark turns into a disc of
// radius km (to the nanosecond, i.e. 0.1 m).
func rttForRadius(km float64) time.Duration {
	return time.Duration(km / maxSlopeKmPerMs * float64(time.Millisecond))
}

// randomPoint draws a landmark position, one time in four within
// 10° of a pole and one in four within 5° of the antimeridian, so the
// search boxes cross ±90° latitude and ±180° longitude.
func randomPoint(g *stats.RNG) geo.Point {
	p := geo.Point{Lat: g.Uniform(-90, 90), Lon: g.Uniform(-180, 180)}
	if g.Bool(0.25) {
		p.Lat = math.Copysign(g.Uniform(80, 90), p.Lat)
	}
	if g.Bool(0.25) {
		p.Lon = math.Copysign(g.Uniform(175, 180), p.Lon)
	}
	return p
}

// randomScenario builds a geolocator with 3–24 landmarks and one RTT
// vector for it. Bestlines are random; RTTs come from a random target
// (as in a real sweep, sometimes underestimated so the discs miss each
// other), or are drawn so radius·slack lands in 19 000–21 000 km around
// πR, or are sub-microsecond so the r = 1 clamp applies. Some entries
// are zero (unreachable landmarks).
func randomScenario(g *stats.RNG) (*CBG, []time.Duration) {
	n := 3 + g.Intn(22)
	lms := make([]LandmarkInfo, n)
	lines := make([]Bestline, n)
	for i := range lms {
		lms[i] = LandmarkInfo{Name: fmt.Sprintf("lm%d", i), Loc: randomPoint(g)}
		lines[i] = Bestline{SlopeKmPerMs: g.Uniform(1, maxSlopeKmPerMs), InterceptKm: g.Uniform(-300, 600)}
	}
	c := newCBG(lms, lines)
	target := randomPoint(g)
	speed := g.Uniform(40, 120) // km per ms of RTT; above 100 underestimates
	rtts := make([]time.Duration, n)
	for i := range rtts {
		var ms float64
		switch k := g.Intn(10); {
		case k < 6:
			ms = geo.Distance(target, c.landmarks[i].Loc)/speed + g.Uniform(0, 20)
		case k < 8:
			slack := slacks[g.Intn(len(slacks))]
			c.lines[i] = Bestline{SlopeKmPerMs: maxSlopeKmPerMs}
			ms = g.Uniform(19000, 21000) / slack / maxSlopeKmPerMs
		case k < 9:
			ms = g.Uniform(1e-6, 1e-3)
		}
		rtts[i] = time.Duration(ms * float64(time.Millisecond))
	}
	return c, rtts
}

// paperScenario builds a geolocator shaped like the paper's: 215
// landmarks (a quarter near a pole, a quarter near the antimeridian)
// with bestline slopes of 40–100 km/ms and intercepts of −150 to
// 100 km, and the RTT vector of a random target. Each RTT covers the
// distance at 70–100% of the landmark's bestline speed, plus 0.2–3 ms.
// Negative intercepts make some discs miss the target, so about half
// the vectors need the relaxation loop, as in the paper suite.
func paperScenario(g *stats.RNG) (*CBG, []time.Duration) {
	const n = 215
	lms := make([]LandmarkInfo, n)
	lines := make([]Bestline, n)
	for i := range lms {
		lms[i] = LandmarkInfo{Name: fmt.Sprintf("lm%d", i), Loc: randomPoint(g)}
		lines[i] = Bestline{SlopeKmPerMs: g.Uniform(40, maxSlopeKmPerMs), InterceptKm: g.Uniform(-150, 100)}
	}
	target := randomPoint(g)
	rtts := make([]time.Duration, n)
	for i := range rtts {
		ms := geo.Distance(target, lms[i].Loc)/(lines[i].SlopeKmPerMs*g.Uniform(0.7, 1.0)) + g.Uniform(0.2, 3)
		rtts[i] = time.Duration(ms * float64(time.Millisecond))
	}
	return newCBG(lms, lines), rtts
}

// straddleScenario builds discs on the edge of liveDiscs' second rule.
// Disc 0 has a radius r0, log-uniform over 1–5000 km, at a random
// centre c0. Each other landmark sits at a haversine distance sep from
// c0 and gets the radius sep + r0·s + 1 km + u, with u uniform in
// ±2 km, divided by s. At slack s it therefore reaches 1 km ± 2 km past
// disc 0, so the rule keeps some discs and drops others that reach
// past it by barely more than the margin; one on c0 with u < −1 km
// becomes disc 0 instead. s is 1 half the time and another slack
// otherwise. Some landmarks sit on c0, or within a metre of it, where
// acos of the dot product is least accurate, and some near its
// antipode.
func straddleScenario(g *stats.RNG) (*CBG, []time.Duration) {
	c0 := randomPoint(g)
	r0 := math.Exp(g.Uniform(0, math.Log(5000)))
	slack := 1.0
	if g.Bool(0.5) {
		slack = slacks[g.Intn(len(slacks))]
	}
	locs := []geo.Point{c0}
	radii := []float64{r0}
	for k := 1 + g.Intn(30); k > 0; k-- {
		var ci geo.Point
		switch j := g.Intn(10); {
		case j < 1:
			ci = c0
		case j < 2:
			ci = geo.Destination(c0, g.Uniform(0, 360), g.Uniform(0, 1e-3))
		case j < 3:
			ci = geo.Point{Lat: -c0.Lat + g.Uniform(-0.5, 0.5), Lon: c0.Lon + 180 + g.Uniform(-0.5, 0.5)}
		default:
			ci = geo.Destination(c0, g.Uniform(0, 360), g.Uniform(0, 15000))
		}
		sep := geo.Distance(c0, ci)
		locs = append(locs, ci)
		radii = append(radii, (sep+r0*slack+pruneMarginKm+g.Uniform(-2, 2))/slack)
	}
	c := unitLineCBG(locs)
	rtts := make([]time.Duration, len(radii))
	for i, r := range radii {
		rtts[i] = rttForRadius(r)
	}
	return c, rtts
}

// TestLocateMatchesReferencePruning holds the disc pruning to the
// haversine grid, bit for bit, on paper-shaped vectors and on discs
// that straddle the pruning margin.
func TestLocateMatchesReferencePruning(t *testing.T) {
	vectors := 400
	if testing.Short() {
		vectors = 40
	}
	g := stats.NewRNG(14)
	for k := 0; k < vectors; k++ {
		c, rtts := paperScenario(g)
		checkMatchesReference(t, fmt.Sprintf("paper %d", k), c, rtts)
		c, rtts = straddleScenario(g)
		checkMatchesReference(t, fmt.Sprintf("straddle %d", k), c, rtts)
	}
}

// TestLiveDiscsPrunes pins the pruning itself, which the oracles
// cannot see: a Locate that tests every disc returns the same Region.
// Around a disc 0 of radius 500 km, discs that reach past it by more
// than the margin and whole-sphere discs never reach the grid, at any
// slack; discs that reach past it by less than the margin, and discs
// whose limit is within the margin of πR, do.
func TestLiveDiscsPrunes(t *testing.T) {
	g := stats.NewRNG(15)
	c0 := geo.Brussels.Point
	locs := []geo.Point{c0}
	radii := []float64{500}
	for i := 0; i < 40; i++ {
		ci := geo.Destination(c0, g.Uniform(0, 360), g.Uniform(0, 8000))
		locs = append(locs, ci)
		radii = append(radii, geo.Distance(c0, ci)+500+2*pruneMarginKm+g.Uniform(0, 3000))
	}
	locs = append(locs, geo.Sydney.Point, geo.London.Point)
	radii = append(radii, 2.5*math.Pi*geo.EarthRadiusKm, 1.01*math.Pi*geo.EarthRadiusKm)
	c := unitLineCBG(locs)
	keys := make([]discKey, len(radii))
	for i, r := range radii {
		keys[i] = discKey{radius: r, lm: i}
	}
	c.tightestFirst(keys)
	for _, slack := range slacks {
		if live := c.liveDiscs(nil, keys, slack); len(live) != 1 || live[0].center != c0 {
			t.Errorf("slack %v: %d discs reach the grid, want disc 0 alone", slack, len(live))
		}
	}

	// Within the margin of disc 0, or with a limit too near πR, a
	// disc stays.
	near := geo.Destination(c0, 90, 1000)
	sep := geo.Distance(c0, near)
	for _, r := range []float64{sep + 500 + 0.5*pruneMarginKm, math.Pi*geo.EarthRadiusKm - 0.5*pruneMarginKm} {
		c := unitLineCBG([]geo.Point{c0, near})
		keys := []discKey{{radius: r, lm: 1}, {radius: 500, lm: 0}}
		c.tightestFirst(keys)
		if live := c.liveDiscs(nil, keys, 1); len(live) != 2 || live[0].center != c0 {
			t.Errorf("radius %.1f km at %.1f km from disc 0: %d discs reach the grid, want 2", r, sep, len(live))
		}
	}
}

// TestLocateMatchesReference is the exactness oracle: over thousands of
// randomized RTT vectors, the dot-product grid returns the same Region,
// bit for bit, as the haversine grid.
func TestLocateMatchesReference(t *testing.T) {
	vectors := 3000
	if testing.Short() {
		vectors = 300
	}
	g := stats.NewRNG(11)
	for k := 0; k < vectors; k++ {
		c, rtts := randomScenario(g)
		checkMatchesReference(t, fmt.Sprintf("vector %d", k), c, rtts)
	}
}

// TestLocateMatchesReferenceEdges pins the inputs where the two tests
// are most likely to part: disc boundaries at the antipode, boxes over
// the poles and the antimeridian, the 1 km radius clamp, discs that
// never intersect, and equal radii whose sort order picks the box.
func TestLocateMatchesReferenceEdges(t *testing.T) {
	g := stats.NewRNG(12)
	randomPoints := func(n int) []geo.Point {
		out := make([]geo.Point, n)
		for i := range out {
			out[i] = randomPoint(g)
		}
		return out
	}

	// radius·slack straddling πR ≈ 20 015 km, at every slack.
	for k := 0; k < 200; k++ {
		c := unitLineCBG(randomPoints(3 + g.Intn(6)))
		slack := slacks[g.Intn(len(slacks))]
		rtts := make([]time.Duration, len(c.landmarks))
		for i := range rtts {
			rtts[i] = rttForRadius(g.Uniform(19000, 21000) / slack)
		}
		// One small disc elsewhere sometimes forces the relaxation
		// loop on to the slack the big radii were drawn for.
		if g.Bool(0.5) {
			rtts[0] = rttForRadius(g.Uniform(50, 2000))
		}
		checkMatchesReference(t, fmt.Sprintf("antipodal %d", k), c, rtts)
	}
	for _, km := range []float64{math.Pi * geo.EarthRadiusKm, math.Pi * geo.EarthRadiusKm * (1 - 1e-9),
		math.Pi * geo.EarthRadiusKm * (1 + 1e-9), 20015, 20016} {
		c := unitLineCBG([]geo.Point{geo.London.Point, geo.Sydney.Point, {Lat: 89.9, Lon: 179.9}})
		rtt := rttForRadius(km)
		checkMatchesReference(t, fmt.Sprintf("radius %.6f", km), c, []time.Duration{rtt, rtt, rtt})
	}

	// Search boxes crossing ±90° latitude and ±180° longitude.
	for _, center := range []geo.Point{{Lat: 85, Lon: 10}, {Lat: -88, Lon: -120}, {Lat: 0, Lon: 179.5},
		{Lat: 10, Lon: -179.8}, {Lat: 89.5, Lon: 179.9}, {Lat: -70, Lon: -178}} {
		for k := 0; k < 20; k++ {
			locs := []geo.Point{center}
			radii := []float64{g.Uniform(200, 3000)}
			for i := 0; i < 4; i++ {
				locs = append(locs, geo.Destination(center, g.Uniform(0, 360), g.Uniform(0, 2500)))
				radii = append(radii, g.Uniform(500, 5000))
			}
			c := unitLineCBG(locs)
			rtts := make([]time.Duration, len(radii))
			for i, r := range radii {
				rtts[i] = rttForRadius(r)
			}
			checkMatchesReference(t, fmt.Sprintf("box around %v #%d", center, k), c, rtts)
		}
	}

	// The r = 1 clamp: sub-kilometre radii and negative intercepts.
	clamp := unitLineCBG([]geo.Point{geo.Paris.Point, geo.Paris.Point, geo.London.Point, geo.Frankfurt.Point})
	clamp.lines[1].InterceptKm = -500
	checkMatchesReference(t, "clamp", clamp, []time.Duration{1, time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond})
	checkMatchesReference(t, "clamp only", clamp, []time.Duration{1, 2, 3, 0})

	// Infeasible through all five slacks: tight discs half a world apart.
	far := unitLineCBG([]geo.Point{geo.London.Point, geo.Sydney.Point, geo.Paris.Point})
	region := far.Locate([]time.Duration{time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	if region.Feasible || region.Centroid != geo.London.Point {
		t.Errorf("disjoint discs: got %+v, want the infeasible fallback at the tightest disc", region)
	}
	checkMatchesReference(t, "infeasible", far, []time.Duration{time.Millisecond, time.Millisecond, 2 * time.Millisecond})

	// Equal radii: the sort's tie order decides which centre is
	// discs[0] and therefore the search box.
	for k := 0; k < 50; k++ {
		c := unitLineCBG(randomPoints(2 + g.Intn(20)))
		rtt := rttForRadius(g.Uniform(100, 15000))
		rtts := make([]time.Duration, len(c.landmarks))
		for i := range rtts {
			rtts[i] = rtt
		}
		checkMatchesReference(t, fmt.Sprintf("ties %d", k), c, rtts)
	}
	// pdqsort returns equal keys in place at any count (its partial
	// insertion sort finds nothing out of order), so the cases above
	// cannot tell its order from a stable sort's. Here the tightest
	// radius is shared by a few discs among larger ones, from 22 up to
	// the paper's 215 landmarks: pdqsort partitions such keys and
	// reorders the tied ones, and only its own order matches the
	// reference.
	for _, n := range []int{22, 23, 25, 30, 40, 50, 64, 100, 150, 215} {
		c := unitLineCBG(randomPoints(n))
		tight := g.Uniform(100, 15000)
		rtts := make([]time.Duration, n)
		for i := range rtts {
			rtts[i] = rttForRadius(tight + g.Uniform(1, 5000))
		}
		for tied := 2 + g.Intn(n/4); tied > 0; tied-- {
			rtts[g.Intn(n)] = rttForRadius(tight)
		}
		checkMatchesReference(t, fmt.Sprintf("%d discs, tightest tied", n), c, rtts)
	}
}

// TestInAllMatchesHaversineAtBoundary drives cells onto disc
// boundaries, where only the haversine fallback can decide: for random
// centre/cell pairs the limit is set to their haversine distance and
// to the floats on either side of it, and inAll must give
// geo.Distance's verdict every time.
func TestInAllMatchesHaversineAtBoundary(t *testing.T) {
	g := stats.NewRNG(13)
	for k := 0; k < 20000; k++ {
		center, p := randomPoint(g), randomPoint(g)
		if g.Bool(0.2) { // near-antipodal pairs
			p = geo.Point{Lat: -center.Lat + g.Uniform(-1e-3, 1e-3), Lon: center.Lon + 180 + g.Uniform(-1e-3, 1e-3)}
		}
		dist := geo.Distance(p, center)
		for _, limit := range []float64{dist, math.Nextafter(dist, 0), math.Nextafter(dist, math.Inf(1))} {
			d := disc{center: center, radius: limit, u: unitVector(center)}
			d.setSlack(1)
			want := !(geo.Distance(p, center) > limit)
			if got := inAll([]disc{d}, p, unitVector(p)); got != want {
				t.Fatalf("centre %v cell %v limit %v: inAll = %v, haversine says %v", center, p, limit, got, want)
			}
		}
	}
}

// FuzzLocatePaperMatchesReference searches for a paper-shaped vector,
// or a set of discs straddling the pruning margin, on which the pruned
// grid and the haversine grid disagree.
func FuzzLocatePaperMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(20100904))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		g := stats.NewRNG(seed)
		c, rtts := paperScenario(g)
		checkMatchesReference(t, fmt.Sprintf("seed %d, paper", seed), c, rtts)
		c, rtts = straddleScenario(g)
		checkMatchesReference(t, fmt.Sprintf("seed %d, straddle", seed), c, rtts)
	})
}

// FuzzLocateMatchesReference searches for an RTT vector on which the
// dot-product grid and the haversine grid disagree.
func FuzzLocateMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(20100904))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		c, rtts := randomScenario(stats.NewRNG(seed))
		checkMatchesReference(t, fmt.Sprintf("seed %d", seed), c, rtts)
	})
}
