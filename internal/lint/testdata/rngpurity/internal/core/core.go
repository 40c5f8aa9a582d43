// Package core stands in for a simulation package whose RNG use
// follows the rules: seeds pass through untouched, streams derive via
// Fork/ForkIndexed, and time is only ever a duration. Its policy reads
// time through an interface, so whether it stays pure depends on the
// implementations, which rngpurity checks where they are written.
package core

import (
	"time"

	"example.com/rngpurityfix/internal/stats"
)

// Config carries the study seed.
type Config struct{ Seed int64 }

// Root builds the root stream from a passed-through seed.
func Root(cfg Config) *stats.RNG { return stats.NewRNG(cfg.Seed) }

// RootFromValue passes a plain identifier.
func RootFromValue(seed int64) *stats.RNG { return stats.NewRNG(seed) }

// Children derive with Fork and ForkIndexed.
func Children(g *stats.RNG, i int) *stats.RNG {
	child := g.Fork("placement")
	return child.ForkIndexed("subnet", i)
}

// Span manipulates durations, not instants.
func Span(d time.Duration) time.Duration { return d * 2 }

// Clock is the indirection a policy reads time through.
type Clock interface{ Stamp() int64 }

// Greedy is a selection policy.
type Greedy struct{ Clock Clock }

// ResolveDNS dispatches through the interface: nothing to flag here.
func (g *Greedy) ResolveDNS(vid int) int { return int(g.Clock.Stamp()) + vid }
