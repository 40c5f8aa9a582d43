// Package suppressed demonstrates a reasoned lockguard escape for a
// contract-level exemption the analyzer cannot see.
package suppressed

import "sync"

// Table is populated single-threaded, then read-only.
type Table struct {
	mu sync.Mutex
	// guarded by mu
	rows []string
}

// Seed runs before any concurrency starts.
func (t *Table) Seed(rows []string) {
	//lint:ok lockguard Seed runs during single-threaded setup, before the table is shared
	t.rows = rows
}

// Len is called concurrently and locks.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// Handoff intentionally returns locked: ownership transfers to the
// caller, which is exactly what the reasoned suppression documents.
type Handoff struct {
	mu sync.Mutex
	n  int
}

// Acquire locks and hands the locked struct back.
func (h *Handoff) Acquire() *Handoff {
	//lint:ok lockguard ownership transfers to the caller, which must call Release
	h.mu.Lock()
	return h
}

// Release returns the lock taken by Acquire.
func (h *Handoff) Release() { h.mu.Unlock() }
