// Package clean counts with typed atomics: no access to them can skip
// the atomic, so there is no plain access to mix in.
package clean

import "sync/atomic"

// Tracker counts atomically on the hot path and snapshots with loads.
type Tracker struct {
	counts []atomic.Int64
	total  atomic.Int64
}

// NewTracker constructs before the value is shared.
func NewTracker(n int) *Tracker {
	return &Tracker{counts: make([]atomic.Int64, n)}
}

// Add is the lock-free hot path.
func (t *Tracker) Add(i int) {
	t.counts[i].Add(1)
	t.total.Add(1)
}

// Snapshot loads every counter.
func (t *Tracker) Snapshot() ([]int64, int64) {
	out := make([]int64, len(t.counts))
	for i := range t.counts {
		out[i] = t.counts[i].Load()
	}
	return out, t.total.Load()
}

// Len reads only the slice header of the element-atomic field.
func (t *Tracker) Len() int {
	return len(t.counts)
}
