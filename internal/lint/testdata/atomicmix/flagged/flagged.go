// Package flagged mixes atomic and plain access to the same fields.
// lockguard reports the sync/atomic function calls that make the mix
// possible; once the fields are typed atomics the plain accesses no
// longer compile.
package flagged

import "sync/atomic"

// Gauge mixes atomic and plain access to its fields.
type Gauge struct {
	n     int64
	peaks []int64
}

// Inc is the atomic whole-field path.
func (g *Gauge) Inc() {
	atomic.AddInt64(&g.n, 1) // want "atomic.AddInt64 works on a plain variable"
}

// Read reads the atomically-written field plainly, no lock.
func (g *Gauge) Read() int64 {
	return g.n
}

// Reset writes it plainly.
func (g *Gauge) Reset() {
	g.n = 0
}

// Bump is the atomic element path.
func (g *Gauge) Bump(i int) {
	atomic.AddInt64(&g.peaks[i], 1) // want "use a typed atomic"
}

// Peek reads an element atomically.
func (g *Gauge) Peek(i int) int64 {
	return atomic.LoadInt64(&g.peaks[i]) // want "atomic.LoadInt64 works on a plain variable"
}

// add references one without calling it.
var add = atomic.AddInt64 // want "atomic.AddInt64"
