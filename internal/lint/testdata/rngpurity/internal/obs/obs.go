// Package obs stands in for the deterministic-plane instrument package
// the core records into: it must stay wall-clock-free.
package obs

import "time"

// Counter is a stand-in instrument.
type Counter struct{ v int64 }

// Inc bumps the counter.
func (c *Counter) Inc() { c.v++ }

// Stamp smuggles the wall clock into the instrument package.
func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now on the deterministic plane"
}

// Age does the same through Since.
func Age(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since on the deterministic plane"
}
