// Package des is a minimal deterministic discrete-event simulation
// engine: a time-ordered event queue with a monotonically advancing
// clock. Ties are broken by scheduling order, so a run is a pure
// function of its inputs.
package des

import (
	"sync/atomic"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// Engine runs events in non-decreasing time order. The zero value is
// ready to use. An Engine is not safe for concurrent use: one goroutine
// drives it, so that runs are reproducible.
//
// The atomic fields shadow that goroutine's state for the gauges
// Instrument registers: a live /metrics scrape reads progress from
// another goroutine while the engine runs, without taking part in its
// synchronization.
type Engine struct {
	queue eventHeap
	now   time.Duration
	seq   uint64

	executed  atomic.Int64 // events run
	liveDepth atomic.Int64 // shadows len(queue)
	liveNow   atomic.Int64 // shadows now, in nanoseconds
}

type event struct {
	at  time.Duration
	seq uint64
	run func()
}

// eventHeap is a concrete-typed binary min-heap ordered by (at, seq).
// It deliberately does not implement container/heap: the interface{}
// Push/Pop protocol boxes every event — two heap allocations per
// scheduled event, on the busiest loop in the simulator. The sift
// operations below mirror container/heap's up/down exactly and (at,
// seq) is a strict total order (seq is unique), so the pop sequence —
// and therefore every simulation result — is identical to the
// container/heap version.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and sifts it up.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	ev := s[n]
	// Zero the vacated slot so the popped event's run closure (and
	// whatever it captures) becomes collectable; otherwise the backing
	// array pins every executed event for the lifetime of the engine.
	s[n] = event{}
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		m := left
		if right := left + 1; right < n && s.less(right, left) {
			m = right
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return ev
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Instrument publishes the engine's progress into reg as live gauges:
// "sim.des.events" (events run), "sim.des.queue_depth" (events queued)
// and "sim.des.now_seconds" (the simulated clock). Each reads an atomic
// shadow, so a scrape may run on any goroutine mid-run; a value may lag
// the engine by one event. Gauge functions are replaced on
// re-registration, so engines instrumented into one registry publish
// the last one's values.
func (e *Engine) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("sim.des.events", func() float64 { return float64(e.executed.Load()) })
	reg.GaugeFunc("sim.des.queue_depth", func() float64 { return float64(e.liveDepth.Load()) })
	reg.GaugeFunc("sim.des.now_seconds", func() float64 { return time.Duration(e.liveNow.Load()).Seconds() })
}

// Schedule enqueues run at the given absolute simulated time. Events
// scheduled in the past execute at the current time (the clock never
// moves backwards).
func (e *Engine) Schedule(at time.Duration, run func()) {
	if at < e.now {
		at = e.now
	}
	e.queue.push(event{at: at, seq: e.seq, run: run})
	e.seq++
	e.liveDepth.Store(int64(len(e.queue)))
}

// ScheduleAfter enqueues run delay after the current time.
func (e *Engine) ScheduleAfter(delay time.Duration, run func()) {
	e.Schedule(e.now+delay, run)
}

// Step executes the earliest event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	e.liveDepth.Store(int64(len(e.queue)))
	e.liveNow.Store(int64(ev.at))
	ev.run()
	e.executed.Add(1)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunBefore executes events with time strictly before deadline, then
// advances the clock to exactly deadline. Events at the deadline stay
// queued, so an action taken between RunBefore and the next Run sees
// every earlier event done and none at or after the deadline — how a
// mid-run policy switch lands. Events the action schedules at the
// deadline run after the ones already queued there.
func (e *Engine) RunBefore(deadline time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at < deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
		e.liveNow.Store(int64(deadline))
	}
}
