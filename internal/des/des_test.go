package des

import (
	"reflect"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

func TestRunInTimeOrder(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v", got)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestScheduleDuringRun(t *testing.T) {
	var e Engine
	var got []string
	e.Schedule(time.Second, func() {
		got = append(got, "first")
		e.ScheduleAfter(time.Second, func() { got = append(got, "second") })
	})
	e.Run()
	if len(got) != 2 || got[1] != "second" {
		t.Errorf("got %v", got)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestSchedulePastClamps(t *testing.T) {
	var e Engine
	fired := time.Duration(-1)
	e.Schedule(5*time.Second, func() {
		e.Schedule(time.Second, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 5*time.Second {
		t.Errorf("past event fired at %v, want clamped to 5s", fired)
	}
}

// TestRunUntil runs the engine up to a deadline that falls between two
// events: the earlier one runs, the clock parks on the deadline, the
// later one stays queued until Run.
func TestRunUntil(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(5*time.Second, func() { got = append(got, 5) })
	e.RunBefore(3 * time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("got %v", got)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run()
	if len(got) != 2 {
		t.Errorf("remaining event lost: %v", got)
	}
}

// TestRunBefore pins the one deadline primitive: RunBefore runs every
// event strictly before the deadline and parks the clock exactly on it,
// so an action taken next (a mid-run policy switch) lands after all
// earlier events and before every event at or after the deadline.
func TestRunBefore(t *testing.T) {
	var e Engine
	var log []string
	rec := func(name string) func() { return func() { log = append(log, name) } }
	e.Schedule(1*time.Second, rec("a@1"))
	e.Schedule(2*time.Second, rec("b@2"))
	e.Schedule(4*time.Second, rec("c@4"))
	e.Schedule(2*time.Second, rec("d@2"))
	e.Schedule(9*time.Second, rec("f@9"))
	check := func(step string, want []string, now time.Duration, pending int) {
		t.Helper()
		if !reflect.DeepEqual(log, want) {
			t.Errorf("%s: ran %v, want %v", step, log, want)
		}
		if e.Now() != now {
			t.Errorf("%s: Now = %v, want %v", step, e.Now(), now)
		}
		if e.Pending() != pending {
			t.Errorf("%s: Pending = %d, want %d", step, e.Pending(), pending)
		}
	}

	// Events exactly at the deadline stay queued.
	e.RunBefore(2 * time.Second)
	check("RunBefore(2s)", []string{"a@1"}, 2*time.Second, 4)

	// An event scheduled at the deadline after RunBefore queues behind
	// the events already there.
	e.Schedule(2*time.Second, rec("x@2"))

	// Inside the gap between 2 s and 4 s the clock parks on the deadline.
	e.RunBefore(3 * time.Second)
	check("RunBefore(3s)", []string{"a@1", "b@2", "d@2", "x@2"}, 3*time.Second, 2)

	// Run drains the rest in (time, sequence) order, including an event
	// scheduled at the parked clock.
	e.Schedule(3*time.Second, rec("y@3"))
	e.Run()
	all := []string{"a@1", "b@2", "d@2", "x@2", "y@3", "c@4", "f@9"}
	check("Run", all, 9*time.Second, 0)

	// Past the last event the clock still parks on the deadline.
	e.Schedule(12*time.Second, rec("z@12"))
	e.RunBefore(30 * time.Second)
	check("RunBefore(30s)", append(all, "z@12"), 30*time.Second, 0)
}

// TestMergedBarrierOrdering checks where an action taken right after
// RunBefore(at) — a barrier, as a policy switch is — lands: after every
// event strictly before at, before every event at or after it.
func TestMergedBarrierOrdering(t *testing.T) {
	var e Engine
	var log []string
	rec := func(name string) func() { return func() { log = append(log, name) } }
	e.Schedule(1*time.Second, rec("a@1"))
	e.Schedule(2*time.Second, rec("b@2"))
	e.Schedule(2*time.Second, rec("a@2"))
	e.Schedule(3*time.Second, rec("b@3"))

	e.RunBefore(2 * time.Second)
	log = append(log, "bar@2")
	e.RunBefore(10 * time.Second)
	log = append(log, "bar@10")
	e.Run()

	want := []string{"a@1", "bar@2", "b@2", "a@2", "b@3", "bar@10"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

// TestBarrierInEventGap checks that a barrier sees the clock on its
// own time, both inside a gap between events and past the last one.
func TestBarrierInEventGap(t *testing.T) {
	var e Engine
	e.Schedule(0, func() {})
	e.Schedule(100*time.Second, func() {})
	for _, at := range []time.Duration{50 * time.Second, 200 * time.Second} {
		e.RunBefore(at)
		if e.Now() != at {
			t.Errorf("clock at %v-barrier = %v", at, e.Now())
		}
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after the last barrier", e.Pending())
	}
}

// TestMergedBarrierSchedulesEvents checks that events a barrier
// schedules run in time order with the queued ones: one earlier than a
// queued event runs first, and ones scheduled by a barrier past the
// last event still run before the next barrier.
func TestMergedBarrierSchedulesEvents(t *testing.T) {
	var e Engine
	var log []string
	rec := func(name string) func() { return func() { log = append(log, name) } }
	e.Schedule(10*time.Second, rec("a@10"))

	e.RunBefore(5 * time.Second)
	log = append(log, "bar@5")
	e.Schedule(7*time.Second, rec("b@7"))

	e.RunBefore(20 * time.Second)
	log = append(log, "bar@20")
	e.Schedule(21*time.Second, rec("a@21"))
	e.Schedule(21*time.Second, rec("b@21"))

	e.RunBefore(30 * time.Second)
	log = append(log, "bar@30")
	e.Run()

	want := []string{"bar@5", "b@7", "a@10", "bar@20", "a@21", "b@21", "bar@30"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

// TestInstrument checks the live gauges against the engine's own
// state after a partial and a full run.
func TestInstrument(t *testing.T) {
	var e Engine
	reg := obs.NewRegistry()
	e.Instrument(reg)
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	gauges := func() (events, depth, now float64) {
		g := reg.Snapshot().Gauges
		return g["sim.des.events"], g["sim.des.queue_depth"], g["sim.des.now_seconds"]
	}
	e.RunBefore(3 * time.Second)
	if ev, d, now := gauges(); ev != 2 || d != 3 || now != 3 {
		t.Errorf("after RunBefore(3s): events %v, queue_depth %v, now_seconds %v; want 2, 3, 3", ev, d, now)
	}
	e.Run()
	if ev, d, now := gauges(); ev != 5 || d != 0 || now != 5 {
		t.Errorf("after Run: events %v, queue_depth %v, now_seconds %v; want 5, 0, 5", ev, d, now)
	}
}

func TestStepOnEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty engine must return false")
	}
}

// TestPopReleasesEventClosures checks that executed events are not
// pinned by the heap's backing array: over a paper-scale week every
// retained closure (and its captured session state) would otherwise
// accumulate without bound.
func TestPopReleasesEventClosures(t *testing.T) {
	var e Engine
	const n = 64
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
	backing := e.queue[:cap(e.queue)]
	for i, ev := range backing {
		if ev.run != nil {
			t.Fatalf("slot %d still holds an executed event's closure", i)
		}
	}
}

func TestManyEventsOrdered(t *testing.T) {
	var e Engine
	const n = 10000
	prev := time.Duration(-1)
	ok := true
	for i := 0; i < n; i++ {
		at := time.Duration((i*7919)%n) * time.Millisecond
		e.Schedule(at, func() {
			if e.Now() < prev {
				ok = false
			}
			prev = e.Now()
		})
	}
	e.Run()
	if !ok {
		t.Error("clock went backwards")
	}
}
