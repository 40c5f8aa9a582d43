package stats

import (
	"math"
	"sort"
	"testing"
)

// checkGuideMatchesSearch fails t unless z.index(u) equals
// sort.SearchFloat64s over the whole CDF: the smallest i with
// cdf[i] >= u. u must lie in [0, 1), the range of RNG.Float64.
func checkGuideMatchesSearch(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	if got, want := z.index(u), sort.SearchFloat64s(z.cdf, u); got != want {
		t.Fatalf("n=%d s=%g u=%v (bits %#x): guide table gives %d, search gives %d",
			len(z.cdf), z.s, u, math.Float64bits(u), got, want)
	}
}

// checkAround checks the u just below, at and just above c that lie in
// [0, 1): a CDF value is where one rank hands over to the next.
func checkAround(t *testing.T, z *Zipf, c float64) {
	t.Helper()
	for _, u := range []float64{math.Nextafter(c, math.Inf(-1)), c, math.Nextafter(c, math.Inf(1))} {
		if u >= 0 && u < 1 {
			checkGuideMatchesSearch(t, z, u)
		}
	}
}

// TestZipfGuideMatchesSearch is the oracle for the guide table: for
// each (n, s), the u -> rank step must equal a binary search over the
// whole CDF for 10^6 draws of RNG.Float64, for 0 and the largest
// float64 below 1, and for every CDF value and its two float64
// neighbours. (400000, 0.8) is the paper catalog; (1, 0) and (17, 0.9)
// have fewer ranks than buckets, so most buckets are empty.
func TestZipfGuideMatchesSearch(t *testing.T) {
	cases := []struct {
		n int
		s float64
	}{{1, 0}, {17, 0.9}, {1000, 1}, {400000, 0.8}}
	for _, c := range cases {
		z, err := NewZipf(c.n, c.s)
		if err != nil {
			t.Fatal(err)
		}
		g := NewRNG(int64(c.n))
		for i := 0; i < 1_000_000; i++ {
			checkGuideMatchesSearch(t, z, g.Float64())
		}
		checkGuideMatchesSearch(t, z, 0)
		checkGuideMatchesSearch(t, z, math.Nextafter(1, 0))
		for _, v := range z.cdf {
			checkAround(t, z, v)
		}
	}
}

// FuzzZipfSampleMatchesSearch runs the guide-table oracle on fuzzed
// (n, s, u): z.index(u) must equal the full binary search at u and at
// the CDF values, and their neighbours, on each side of the answer. A
// NaN or negative s must be rejected. u outside [0, 1) is folded into
// it by its fractional part.
func FuzzZipfSampleMatchesSearch(f *testing.F) {
	f.Add(uint32(400000), 0.8, 0.5)
	f.Add(uint32(1), 0.0, 0.0)
	f.Add(uint32(17), 0.9, 0.999)
	f.Add(uint32(1000), 1.0, 1.0/3)
	f.Add(uint32(70000), 2.5, 0.9999999)
	f.Add(uint32(5), math.Inf(1), 0.25)
	f.Fuzz(func(t *testing.T, nRaw uint32, s, u float64) {
		n := int(nRaw%(1<<19)) + 1
		z, err := NewZipf(n, s)
		if !(s >= 0) {
			if err == nil {
				t.Fatalf("NewZipf(%d, %g) must fail", n, s)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return
		}
		u -= math.Floor(u)
		if u >= 1 { // a tiny negative u rounds up to 1
			u = 0
		}
		checkGuideMatchesSearch(t, z, u)
		i := z.index(u)
		checkAround(t, z, z.cdf[i])
		if i > 0 {
			checkAround(t, z, z.cdf[i-1])
		}
	})
}
