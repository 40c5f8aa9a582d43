// Package obs is the deterministic half of the observability layer:
// lock-free counters and fixed-bucket log histograms that the
// simulation core updates while it runs, gauges that are functions
// (Registry.GaugeFunc) evaluated at snapshot time over state the
// instrumented code already keeps, and a registry that renders them as
// a JSON snapshot for the /metrics endpoint and the end-of-run report.
//
// The package is split across two planes by construction:
//
//   - The DETERMINISTIC plane is this package. Instruments here are
//     keyed on simulated time and event counts only — they never read
//     the wall clock, never draw randomness, and never feed back into
//     the simulation, so recording into them is provably
//     zero-perturbation: a run with metrics enabled is bit-identical
//     to one without. The obsplane lint analyzer enforces the
//     invariant (no time.Now/Since/Until anywhere in this package, and
//     the deterministic core packages may not reach the wall-clock
//     subpackages below).
//   - The WALL-CLOCK plane lives in the subpackages obs/profile
//     (per-phase pipeline timing, process gauges, progress lines) and
//     obs/obshttp (the live HTTP endpoint). Only the harness and cmd
//     layers may use them.
//
// All instruments are safe for concurrent use: a study's engine
// goroutine, or several concurrent studies sharing one registry
// (ComparePolicies), record while the HTTP scrape goroutine snapshots.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
//perf:hot
//perf:inline
//perf:noalloc
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//perf:hot
//perf:inline
//perf:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the bucket count of a Histogram: bucket 0 holds
// observations <= 0, bucket k (1..64) holds 2^(k-1) <= v < 2^k.
const histBuckets = 65

// Histogram accumulates int64 observations into fixed power-of-two
// buckets. The bucket layout is static — no sampling, no rebalancing —
// so concurrent observation order cannot change what a snapshot
// reports for a given multiset of observations, and quantiles are a
// pure function of the recorded counts. Quantile returns the upper
// bound of the bucket containing the requested rank, a deterministic
// overestimate that is exact at bucket boundaries.
//
// Build histograms with NewHistogram (the registry does): the min/max
// trackers rely on sentinel initial values.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 until the first observation
	max     atomic.Int64 // MinInt64 until the first observation
}

// NewHistogram returns a ready histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketOf maps an observation to its bucket index.
//
//perf:inline
//perf:noalloc
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the inclusive upper bound reported for bucket i:
// 0 for bucket 0, otherwise 2^i - 1 (the largest value the bucket
// holds).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return (int64(1) << i) - 1
}

// Observe records one value.
//
//perf:hot
//perf:noalloc
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns the value at quantile q in [0, 1]: the upper bound
// of the bucket holding the ceil(q*count)-th smallest observation
// (rank 1 for q == 0). With zero observations it returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	// Concurrent observers may have bumped count after our bucket
	// reads; report the highest non-empty bucket seen.
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// HistogramSnapshot is the rendered state of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
}

// SnapshotValues renders the histogram's summary statistics.
func (h *Histogram) SnapshotValues() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	return s
}
