//go:build !race

package des

import (
	"testing"
	"time"
)

// TestEventQueueAllocs is the event queue's allocation contract: on a
// warmed engine, scheduling an event and stepping one (push, pop and
// the less comparisons of both sifts) allocates nothing. The queue's
// backing array grows only while the queue is deeper than ever before,
// and the event's closure is the caller's, built once here.
func TestEventQueueAllocs(t *testing.T) {
	var e Engine
	const depth = 64
	run := func() {}
	for i := 0; i < depth; i++ {
		e.Schedule(time.Duration(i*7919%depth)*time.Second, run)
	}
	at := time.Duration(depth) * time.Second
	allocs := testing.AllocsPerRun(1000, func() {
		at += time.Second
		e.Schedule(at, run)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule plus Step allocates %.1f times, want 0", allocs)
	}
	if e.Pending() != depth {
		t.Errorf("queue depth %d after balanced Schedule/Step, want %d", e.Pending(), depth)
	}
}
