// Package stats is a stand-in for the real deterministic-stream
// package; the rngpurity analyzer recognizes it by its import-path
// suffix and exempts it, since it is where math/rand belongs.
package stats

import "math/rand"

// RNG is a deterministic stream.
type RNG struct{ r *rand.Rand }

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// Fork derives an independent child stream.
func (g *RNG) Fork(name string) *RNG { return NewRNG(g.r.Int63() ^ int64(len(name))) }

// ForkIndexed derives the i-th stream of a bucketed family.
func (g *RNG) ForkIndexed(name string, i int) *RNG { return g.Fork(name) }

// Float64 draws from the stream.
func (g *RNG) Float64() float64 { return g.r.Float64() }
