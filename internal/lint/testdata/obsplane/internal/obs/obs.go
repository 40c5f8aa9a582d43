// Package obs is a stand-in for the deterministic-plane instrument
// package the core records into.
package obs

// Counter is a stand-in instrument.
type Counter struct{ v int64 }

// Inc bumps the counter.
func (c *Counter) Inc() { c.v++ }
