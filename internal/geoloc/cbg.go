// Package geoloc implements the two geolocation approaches the paper
// contrasts in §V: a static IP-to-location database (which places
// every Google server in Mountain View and is therefore useless for
// this infrastructure) and CBG — Constraint-Based Geolocation (Gueye
// et al., IEEE/ACM ToN 2006) — the delay-based multilateration the
// authors actually use.
//
// CBG works in two phases. Calibration: each landmark measures RTTs to
// all other landmarks (whose positions are known) and fits its
// "bestline" — the lowest line lying above every (RTT, distance)
// point, found on the upper convex hull. Location: the landmark's
// bestline converts a measured RTT to the target into a distance upper
// bound, i.e. a disc around the landmark; the target must lie in the
// intersection of all discs. The centroid of the intersection is the
// position estimate and sqrt(area/π) its confidence radius (Fig 3).
//
// The intersection is found by grid-sampling, so its cost is one
// point-in-disc test per (grid cell, disc) pair. The test is a dot
// product, not a haversine distance. With u the unit vector of a cell
// and c that of a disc centre, the great-circle distance between them
// is R·acos(u·c), which falls as u·c grows. The cell therefore lies
// within limit = radius·slack exactly when u·c ≥ cos θ, θ = limit/R.
// The unit vectors cost one math.Sincos per disc per Locate and one
// per grid row and column; the test itself is three multiplies.
//
// Both tests round, so they could disagree on a cell whose u·c sits
// next to cos θ. A guard band of g = 1e-10 around cos θ removes that
// case. A cell with u·c ≥ cos θ + g is inside, one with
// u·c ≤ cos θ − g is outside, and one in between is decided by the
// original geo.Distance(cell, centre) > limit. This is exact because
// every rounding error involved is about 1e-15 in cosine terms, five
// orders of magnitude inside g:
//   - u·c sums three products of values math.Sincos gets right to
//     an ulp;
//   - cos θ is one math.Cos of a correctly rounded quotient;
//   - haversine's h is (1 − cos φ)/2 up to a few ulps, and its sqrt,
//     asin and ×2R add a relative error of a few ulps to the angle,
//     which moves cos φ by at most as much.
//
// So whenever the band is cleared, haversine would give the same
// answer, and inside the band haversine answers. Every Region is
// bit-identical to the haversine-only grid. Two cases skip the band.
// A disc with θ > π(1+1e-9) covers the whole sphere (haversine never
// exceeds πR), so every cell is inside. A disc with θ within 1e-9 of
// π has its boundary at the antipode, where haversine's clamped asin
// and πR's rounding meet, so every cell of it is decided by haversine.
package geoloc

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
)

// LandmarkInfo is a measurement host with known position.
type LandmarkInfo struct {
	Name string
	Loc  geo.Point
}

// Bestline is a landmark's calibrated RTT→distance conversion:
// distance_km <= Slope * rtt_ms + InterceptKm.
type Bestline struct {
	SlopeKmPerMs float64
	InterceptKm  float64
}

// maxSlopeKmPerMs is the physical limit: light in fiber covers ~100 km
// per millisecond of RTT (200 km/ms one-way over half the RTT).
const maxSlopeKmPerMs = 100.0

// CBG is a calibrated constraint-based geolocator.
type CBG struct {
	landmarks []LandmarkInfo
	lines     []Bestline
}

// Calibrate fits each landmark's bestline from the cross-RTT matrix
// crossRTT(i, j), the measured (minimum) RTT between landmarks i and j.
func Calibrate(landmarks []LandmarkInfo, crossRTT func(i, j int) time.Duration) (*CBG, error) {
	if len(landmarks) < 3 {
		return nil, fmt.Errorf("geoloc: CBG needs at least 3 landmarks, got %d", len(landmarks))
	}
	c := &CBG{landmarks: landmarks, lines: make([]Bestline, len(landmarks))}
	for i := range landmarks {
		pts := make([]point2, 0, len(landmarks)-1)
		for j := range landmarks {
			if i == j {
				continue
			}
			rtt := crossRTT(i, j).Seconds() * 1000
			dist := geo.Distance(landmarks[i].Loc, landmarks[j].Loc)
			if rtt <= 0 {
				continue
			}
			pts = append(pts, point2{x: rtt, y: dist})
		}
		line, err := fitBestline(pts)
		if err != nil {
			return nil, fmt.Errorf("geoloc: landmark %s: %w", landmarks[i].Name, err)
		}
		c.lines[i] = line
	}
	return c, nil
}

// Landmarks returns the calibrated landmark set.
func (c *CBG) Landmarks() []LandmarkInfo { return c.landmarks }

// Line returns landmark i's bestline.
func (c *CBG) Line(i int) Bestline { return c.lines[i] }

type point2 struct{ x, y float64 }

// fitBestline solves the CBG linear program: minimize the total
// overshoot sum(m*x_j + b - y_j) subject to every point lying on or
// below the line and 0 < m <= maxSlope. The optimum is supported by an
// edge of the upper convex hull (or by the slope clamp), so only hull
// edges need to be evaluated.
func fitBestline(pts []point2) (Bestline, error) {
	if len(pts) < 2 {
		return Bestline{}, fmt.Errorf("need at least 2 calibration points, got %d", len(pts))
	}
	hull := upperHull(pts)

	var sumX, sumY float64
	for _, p := range pts {
		sumX += p.x
		sumY += p.y
	}
	n := float64(len(pts))
	// objective(m, b) = m*sumX + n*b - sumY (all constraints satisfied
	// means every term non-negative).
	objective := func(m, b float64) float64 { return m*sumX + n*b - sumY }
	feasible := func(m, b float64) bool {
		for _, p := range hull { // hull points dominate all others
			if p.y > m*p.x+b+1e-9 {
				return false
			}
		}
		return true
	}

	best := Bestline{SlopeKmPerMs: maxSlopeKmPerMs, InterceptKm: 0}
	bestObj := math.Inf(1)
	if feasible(best.SlopeKmPerMs, best.InterceptKm) {
		bestObj = objective(best.SlopeKmPerMs, best.InterceptKm)
	}
	consider := func(m, b float64) {
		if m <= 0 || m > maxSlopeKmPerMs {
			return
		}
		if !feasible(m, b) {
			return
		}
		if obj := objective(m, b); obj < bestObj {
			bestObj = obj
			best = Bestline{SlopeKmPerMs: m, InterceptKm: b}
		}
	}
	// Hull edges.
	for i := 1; i < len(hull); i++ {
		p, q := hull[i-1], hull[i]
		if q.x == p.x {
			continue
		}
		m := (q.y - p.y) / (q.x - p.x)
		b := p.y - m*p.x
		consider(m, b)
	}
	// Slope clamp through each hull vertex (binding m = maxSlope).
	for _, p := range hull {
		consider(maxSlopeKmPerMs, p.y-maxSlopeKmPerMs*p.x)
	}
	if math.IsInf(bestObj, 1) {
		return Bestline{}, fmt.Errorf("no feasible bestline")
	}
	return best, nil
}

// upperHull returns the upper convex hull of pts, left to right
// (Andrew's monotone chain).
func upperHull(pts []point2) []point2 {
	sorted := make([]point2, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].x != sorted[j].x {
			return sorted[i].x < sorted[j].x
		}
		return sorted[i].y < sorted[j].y
	})
	var hull []point2
	for _, p := range sorted {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Keep the chain turning clockwise (concave down).
			if (b.x-a.x)*(p.y-a.y)-(b.y-a.y)*(p.x-a.x) >= 0 {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, p)
	}
	return hull
}

// Region is a CBG location estimate.
type Region struct {
	// Centroid is the position estimate.
	Centroid geo.Point
	// RadiusKm is the confidence radius: the radius of a circle with
	// the same area as the feasible intersection region.
	RadiusKm float64
	// Feasible is false when the discs had no common intersection even
	// after relaxation (the estimate falls back to the tightest disc).
	Feasible bool
}

// guardBand is the half-width g of the band around cos θ in which the
// dot-product test defers to haversine (see the package comment).
const guardBand = 1e-10

// slacks are the radius inflations the relaxation loop tries in turn.
var slacks = [...]float64{1.0, 1.1, 1.25, 1.5, 2.0}

// vec3 is a point of the unit sphere in Earth-centred coordinates.
type vec3 struct{ x, y, z float64 }

// unitVector returns the unit vector of a position in degrees.
func unitVector(p geo.Point) vec3 {
	sinLat, cosLat := math.Sincos(p.Lat * math.Pi / 180)
	sinLon, cosLon := math.Sincos(p.Lon * math.Pi / 180)
	return vec3{cosLat * cosLon, cosLat * sinLon, sinLat}
}

// disc is one landmark's distance constraint. limit, in and out
// belong to the current relaxation slack: a cell whose unit vector has
// a dot product ≥ in with u lies within limit of center, one ≤ out
// lies beyond it, and one in between is decided by haversine.
type disc struct {
	center         geo.Point
	radius         float64
	u              vec3
	limit, in, out float64
}

// setSlack derives the disc's thresholds for one relaxation slack.
func (d *disc) setSlack(slack float64) {
	d.limit = d.radius * slack
	theta := d.limit / geo.EarthRadiusKm
	switch {
	case theta > math.Pi*(1+1e-9):
		d.in, d.out = math.Inf(-1), math.Inf(-1) // the whole sphere
	case theta >= math.Pi*(1-1e-9):
		d.in, d.out = math.Inf(1), math.Inf(-1) // always haversine
	default:
		cos := math.Cos(theta)
		d.in, d.out = cos+guardBand, cos-guardBand
	}
}

// discPool recycles Locate's disc slices. Locate runs once per located
// server, and a fresh slice of discs this size per call would add about
// a tenth to the paper suite's allocated bytes.
var discPool = sync.Pool{New: func() any { return new([]disc) }}

// Locate estimates the position of a target from its per-landmark
// measured RTTs. Entries with non-positive RTT are skipped (landmark
// unreachable).
func (c *CBG) Locate(rtts []time.Duration) Region {
	scratch := discPool.Get().(*[]disc)
	defer discPool.Put(scratch)
	discs := (*scratch)[:0]
	for i, rtt := range rtts {
		if i >= len(c.landmarks) || rtt <= 0 {
			continue
		}
		ms := rtt.Seconds() * 1000
		r := c.lines[i].SlopeKmPerMs*ms + c.lines[i].InterceptKm
		// The physical bound always applies.
		if phys := ms * maxSlopeKmPerMs; r > phys {
			r = phys
		}
		if r < 1 {
			r = 1
		}
		loc := c.landmarks[i].Loc
		discs = append(discs, disc{center: loc, radius: r, u: unitVector(loc)})
	}
	*scratch = discs
	if len(discs) == 0 {
		return Region{Feasible: false}
	}
	// Tightest discs first: they prune the grid fastest and define the
	// search box.
	sort.Slice(discs, func(i, j int) bool { return discs[i].radius < discs[j].radius })

	// Relaxation loop: CBG underestimation can make the intersection
	// empty; inflate radii until points qualify.
	for _, slack := range slacks {
		for i := range discs {
			discs[i].setSlack(slack)
		}
		region, ok := gridRegion(discs, discs[0].center, discs[0].limit)
		if ok {
			region.Feasible = slack == 1.0
			return region
		}
	}
	return Region{Centroid: discs[0].center, RadiusKm: discs[0].radius, Feasible: false}
}

// inAll reports whether the cell p, with unit vector u, lies in every
// disc at the current slack. Each verdict is that of
// geo.Distance(p, d.center) > d.limit; discs are tried in order and
// the first miss ends the test.
//
//perf:hot
//perf:noalloc
func inAll(discs []disc, p geo.Point, u vec3) bool {
	for i := range discs {
		d := &discs[i]
		dot := u.x*d.u.x + u.y*d.u.y + u.z*d.u.z
		if dot >= d.in {
			continue
		}
		if dot <= d.out || geo.Distance(p, d.center) > d.limit {
			return false
		}
	}
	return true
}

// gridRegion grid-samples the search box around the tightest disc,
// returning the centroid and equivalent radius of the cells inside
// every disc. Two passes: a coarse pass over the disc's bounding box,
// then a refined pass over the feasible sub-box.
//
//perf:hot
//perf:noalloc
func gridRegion(discs []disc, center geo.Point, radius float64) (Region, bool) {
	const n = 26
	var lat, lon [n]float64
	var rows, cols [n]struct{ sin, cos float64 }
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
		for k := 0; k < n; k++ {
			lat[k] = box.minLat + (float64(k)+0.5)*dLat
			lon[k] = box.minLon + (float64(k)+0.5)*dLon
			rows[k].sin, rows[k].cos = math.Sincos(lat[k] * math.Pi / 180)
			cols[k].sin, cols[k].cos = math.Sincos(lon[k] * math.Pi / 180)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p := geo.Point{Lat: lat[i], Lon: lon[j]}
				u := vec3{rows[i].cos * cols[j].cos, rows[i].cos * cols[j].sin, rows[i].sin}
				if !inAll(discs, p, u) {
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
		// Cell area in km²: lat cell × lon cell at the centroid.
		cellKm2 := (dLat * 111.19) * (dLon * 111.19 * math.Cos(centroid.Lat*math.Pi/180))
		area := float64(count) * math.Abs(cellKm2)
		region := Region{Centroid: centroid, RadiusKm: math.Sqrt(area / math.Pi), Feasible: true}
		if pass == 1 || count > n*n/4 {
			return region, true
		}
		// Refine around the feasible cells.
		box = latLonBox{
			minLat: minLat - dLat, maxLat: maxLat + dLat,
			minLon: minLon - dLon, maxLon: maxLon + dLon,
		}
	}
	return Region{}, false
}

type latLonBox struct {
	minLat, maxLat, minLon, maxLon float64
}

// boxAround returns the lat/lon bounding box of a disc.
func boxAround(center geo.Point, radiusKm float64) latLonBox {
	dLat := radiusKm / 111.19
	cos := math.Cos(center.Lat * math.Pi / 180)
	if cos < 0.05 {
		cos = 0.05
	}
	dLon := radiusKm / (111.19 * cos)
	return latLonBox{
		minLat: center.Lat - dLat, maxLat: center.Lat + dLat,
		minLon: center.Lon - dLon, maxLon: center.Lon + dLon,
	}
}
