package core

import (
	"fmt"
	"sync/atomic"
)

// LoadTracker counts concurrent units (flows or sessions) per entity.
// Acquire/Release must balance; the tracker panics on negative counts
// because that always indicates a simulator bug that would corrupt
// every load-dependent result downstream.
//
// Counters are atomic because the live /metrics gauges
// (sim.selector.dc_load.*, flows_active, sessions_active) read them
// from the scrape goroutine while the engine goroutine begins and ends
// flows. The simulation itself updates them from one goroutine, so
// its decisions always see the current load.
type LoadTracker struct {
	counts []atomic.Int64
	label  string
}

// NewLoadTracker creates a tracker for n entities.
func NewLoadTracker(label string, n int) *LoadTracker {
	return &LoadTracker{counts: make([]atomic.Int64, n), label: label}
}

// Acquire increments the load of entity i.
//
//perf:hot
//perf:inline
//perf:noalloc
func (lt *LoadTracker) Acquire(i int) { lt.counts[i].Add(1) }

// Release decrements the load of entity i.
//
//perf:hot
//perf:inline
//perf:noalloc
func (lt *LoadTracker) Release(i int) {
	if lt.counts[i].Add(-1) < 0 {
		lt.negative(i)
	}
}

// negative reports the balance bug. Split out of Release — and pinned
// out of line — so the Sprintf machinery stays off Release's inlining
// budget and allocation contract: Release runs once per flow end on
// the hot path, the panic never in a correct run.
//
//go:noinline
func (lt *LoadTracker) negative(i int) {
	panic(fmt.Sprintf("core: %s load of entity %d went negative", lt.label, i))
}

// Load returns the current load of entity i.
//
//perf:inline
//perf:noalloc
func (lt *LoadTracker) Load(i int) int { return int(lt.counts[i].Load()) }

// Total returns the summed load across entities.
func (lt *LoadTracker) Total() int {
	sum := int64(0)
	for i := range lt.counts {
		sum += lt.counts[i].Load()
	}
	return int(sum)
}
