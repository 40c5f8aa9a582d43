// Package profile stands in for the wall-clock plane, which rngpurity
// exempts: timing phases is its job.
package profile

import "time"

// Phase times a phase on the wall clock.
func Phase() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
