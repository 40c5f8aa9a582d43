// Package profile is a stand-in for the wall-clock plane: free to
// read the clock, forbidden to the deterministic plane.
package profile

import "time"

// Phase times a phase on the wall clock (legal here: profile is the
// wall-clock plane, outside obsplane's scope).
func Phase() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
