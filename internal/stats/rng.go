// Package stats provides the statistical toolkit shared by the
// simulator and the analysis pipeline: deterministic random streams,
// empirical CDFs and quantiles, time-binned counters, and the heavy-tail
// samplers (Zipf, log-normal) that drive the synthetic workload.
package stats

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. It wraps math/rand with a few
// distributions the workload model needs. Drawing from an RNG is not
// safe for concurrent use; derive independent streams with Fork
// (which is safe to call concurrently) instead of sharing one.
type RNG struct {
	seed int64
	r    *rand.Rand // &lazy, until src builds its register
	lazy rand.Rand
	src  lazySource
}

// NewRNG returns a stream seeded with seed. Its draws are exactly those
// of rand.New(rand.NewSource(seed)); the source state is built lazily
// (see lazySource), so a short-lived stream costs one allocation.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.src.Seed(seed)
	g.src.owner = &g.r
	g.lazy = *rand.New(&g.src)
	g.r = &g.lazy
	return g
}

// Seed returns the seed the stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// ForkSeed derives the seed of the child stream labelled name from a
// parent seed. It is a pure function of its arguments, so child
// streams are independent of how much the parent has drawn and of the
// order in which siblings are forked.
func ForkSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

// Fork derives an independent stream labelled by name. The child seed
// depends only on the parent's seed and the name — not on the parent's
// draw position — which keeps every experiment bit-reproducible
// regardless of the order in which subsystems draw random numbers, and
// makes Fork safe to call from concurrent goroutines. Forking the same
// name twice from one parent yields identical streams; use distinct
// names for independent streams.
func (g *RNG) Fork(name string) *RNG {
	return NewRNG(ForkSeed(g.seed, name))
}

// ForkIndexed derives the i-th stream of a bucketed family ("name/i").
// It is the fork used to split one logical actor into independent
// sub-streams — e.g. a vantage point's per-subnet workload and player
// streams — and inherits Fork's guarantees: the child depends only on
// (parent seed, name, i), never on how many siblings exist or in which
// order they are forked, so any grouping of the buckets onto engines
// reproduces bit-identically.
func (g *RNG) ForkIndexed(name string, i int) *RNG {
	return g.Fork(fmt.Sprintf("%s/%d", name, i))
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential draw with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// LogNormal returns a draw from a log-normal distribution with the
// given parameters of the underlying normal (mu, sigma).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Poisson returns a Poisson draw with the given mean, using Knuth's
// algorithm for small means and a normal approximation for large ones.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		// Normal approximation; adequate for arrival counts.
		n := int(math.Round(mean + math.Sqrt(mean)*g.r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }
