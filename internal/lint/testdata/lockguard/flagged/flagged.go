// Package flagged exercises the lockguard triggers.
package flagged

import "sync"

// Counter is a mutex-guarded counter.
type Counter struct {
	mu sync.Mutex
	// guarded by mu
	n int
}

// Add holds the lock for the access but unlocks by hand.
func (c *Counter) Add() {
	c.mu.Lock() // want "c.mu.Lock\(\) is not followed directly by defer c.mu.Unlock\(\)"
	c.n++
	c.mu.Unlock()
}

// Peek reads the guarded field without the lock.
func (c *Counter) Peek() int {
	return c.n // want "guarded by mu"
}

// Reset writes it without the lock from outside a method.
func Reset(c *Counter) {
	c.n = 0 // want "guarded by mu"
}

// WrongMutex locks a different receiver's mutex.
func WrongMutex(a, b *Counter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.n++ // want "guarded by mu"
}

// OtherReceiver defers the unlock of a different counter's mutex.
func OtherReceiver(a, b *Counter) {
	a.mu.Lock() // want "a.mu.Lock\(\) is not followed directly by defer a.mu.Unlock\(\)"
	defer b.mu.Unlock()
	a.n++
}

// Leaky shows why the unlock is deferred: a hand-written unlock is
// skipped by any return that comes before it.
type Leaky struct {
	mu sync.RWMutex
	n  int
}

// Bad returns while holding mu on the early path.
func (l *Leaky) Bad(skip bool) int {
	l.mu.Lock() // want "l.mu.Lock\(\) is not followed directly by defer l.mu.Unlock\(\)"
	if skip {
		return 0
	}
	n := l.n
	l.mu.Unlock()
	return n
}

// Good defers the unlock: every exit is covered.
func (l *Leaky) Good(skip bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if skip {
		return 0
	}
	return l.n
}

// Mismatched defers the write unlock after a read lock.
func (l *Leaky) Mismatched() int {
	l.mu.RLock() // want "l.mu.RLock\(\) is not followed directly by defer l.mu.RUnlock\(\)"
	defer l.mu.Unlock()
	return l.n
}
