// Package netmodel stands in for a deterministic package outside the
// simulation core that implements the core's Clock interface.
package netmodel

import (
	"time"

	"example.com/rngpurityfix/internal/core"
)

var (
	_ core.Clock = WallClock{}
	_ core.Clock = SimClock{}
)

// WallClock is the impure implementation: flagged where it is
// written, whichever policy later calls it through the interface.
type WallClock struct{}

// Stamp reads the wall clock.
func (WallClock) Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now on the deterministic plane"
}

// SimClock is the pure implementation.
type SimClock struct{ At time.Duration }

// Stamp returns the simulated instant.
func (c SimClock) Stamp() int64 { return int64(c.At) }
