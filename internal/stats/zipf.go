package stats

import (
	"fmt"
	"math"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF and a guide table over it, so a
// draw searches one small bucket of the CDF instead of all of it, and
// it is deterministic given the RNG stream.
//
// YouTube video popularity is well modelled by a Zipf-like law with
// exponent near 1 (Cha et al., IMC 2007), which is what the workload
// generator uses.
type Zipf struct {
	cdf []float64
	// guide[k] is the smallest rank i with cdf[i] >= k/zipfGuideSize
	// (Chen & Asau's guide table). A draw u has its answer between
	// guide[k] and guide[k+1] for k = floor(u*zipfGuideSize), and
	// between guide[k] and n-1 in the last bucket.
	guide []int32
	s     float64
}

// zipfGuideSize is the guide table's bucket count. A power of two
// makes u*zipfGuideSize and k/zipfGuideSize exact in float64, so the
// bucket bounds hold with no rounding slack. 2^14 int32 entries are
// 64 KB, which a catalog keeps alive as long as its CDF.
const zipfGuideSize = 1 << 14

// NewZipf builds a sampler over n ranks with exponent s. It returns an
// error if n < 1, n does not fit an int32, or s is negative or NaN.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 || n > math.MaxInt32 {
		return nil, fmt.Errorf("stats: zipf needs 1 <= n <= %d, got %d", math.MaxInt32, n)
	}
	if !(s >= 0) {
		return nil, fmt.Errorf("stats: zipf needs s >= 0, got %g", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	guide := make([]int32, zipfGuideSize)
	i := 0
	for k := range guide {
		for cdf[i] < float64(k)/zipfGuideSize {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, s: s}, nil
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Exponent returns the skew parameter s.
func (z *Zipf) Exponent() float64 { return z.s }

// Sample draws a rank in [0, N) using g.
func (z *Zipf) Sample(g *RNG) int { return z.index(g.Float64()) }

// index returns the smallest rank i with cdf[i] >= u, for u in [0, 1):
// the index sort.SearchFloat64s(z.cdf, u) returns. The answer lies in
// u's guide bucket, between guide[k] and guide[k+1]. The search starts
// where u's offset into the bucket interpolates to and steps to the
// answer one rank at a time, which takes few steps where the CDF is
// close to linear across a bucket: 0.40 steps a draw on average over
// the paper catalog's 400,000 ranks at s = 0.8. A steep law makes the
// last bucket span most ranks, so a draw there steps far: at s = 2.5
// the average is 15 steps, where a binary search needs one or two.
func (z *Zipf) index(u float64) int {
	x := u * zipfGuideSize
	k := int(x)
	lo, hi := int(z.guide[k]), len(z.cdf)-1
	if k+1 < zipfGuideSize {
		hi = int(z.guide[k+1])
	}
	i := lo + int((x-float64(k))*float64(hi-lo))
	for z.cdf[i] < u {
		i++
	}
	for i > lo && z.cdf[i-1] >= u {
		i--
	}
	return i
}

// ProbOfRank returns the probability mass of the given rank.
func (z *Zipf) ProbOfRank(rank int) float64 {
	if rank < 0 || rank >= len(z.cdf) {
		return 0
	}
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}
