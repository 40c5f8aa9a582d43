package des

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMergedOrderMatchesSingleEngine proves the window-0 guarantee at
// the engine level: splitting an event population across shards and
// merge-running them executes the union in exactly the order one
// engine would, with equal-time events ordered by shard index (the
// wiring order, which is the scheduling order on a single engine).
func TestMergedOrderMatchesSingleEngine(t *testing.T) {
	type ev struct {
		src int
		at  time.Duration
	}
	// Two sources with interleaved and colliding times.
	times := [][]time.Duration{
		{0, 10 * time.Second, 20 * time.Second, 20 * time.Second, 35 * time.Second},
		{0, 5 * time.Second, 20 * time.Second, 40 * time.Second},
	}

	var single Engine
	var want []ev
	for src, ts := range times { // wiring order: source 0 first
		src, ts := src, ts
		for _, at := range ts {
			at := at
			single.Schedule(at, func() { want = append(want, ev{src, at}) })
		}
	}
	single.Run()

	shards := []*Engine{{}, {}}
	var got []ev
	for src, ts := range times {
		src := src
		for _, at := range ts {
			at := at
			shards[src].Schedule(at, func() { got = append(got, ev{src, at}) })
		}
	}
	r, err := NewShardedRunner(0, shards...)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()

	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged order:\n got %v\nwant %v", got, want)
	}
}

// TestMergedBarrierOrdering pins barrier semantics under window 0: a
// barrier at T runs after every event strictly before T and before any
// event at or after T; trailing barriers still run.
func TestMergedBarrierOrdering(t *testing.T) {
	shards := []*Engine{{}, {}}
	var log []string
	shards[0].Schedule(1*time.Second, func() { log = append(log, "a@1") })
	shards[1].Schedule(2*time.Second, func() { log = append(log, "b@2") })
	shards[0].Schedule(2*time.Second, func() { log = append(log, "a@2") })
	shards[1].Schedule(3*time.Second, func() { log = append(log, "b@3") })

	r, err := NewShardedRunner(0, shards...)
	if err != nil {
		t.Fatal(err)
	}
	r.AddBarrier(2*time.Second, func() { log = append(log, "bar@2") })
	r.AddBarrier(10*time.Second, func() { log = append(log, "bar@10") })
	r.Run()

	want := []string{"a@1", "bar@2", "a@2", "b@2", "b@3", "bar@10"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

// TestWindowedLockstep checks windowed mode executes every event
// exactly once and keeps each shard's own events in time order.
// Cross-shard order inside a window is unspecified.
func TestWindowedLockstep(t *testing.T) {
	const window = 10 * time.Second
	shards := []*Engine{{}, {}, {}}
	var mu sync.Mutex
	executed := make(map[int][]time.Duration)

	total := 0
	for s, e := range shards {
		s, e := s, e
		for i := 0; i < 50; i++ {
			at := time.Duration(i*(s+2)) * time.Second / 2
			total++
			e.Schedule(at, func() {
				mu.Lock()
				executed[s] = append(executed[s], at)
				mu.Unlock()
			})
		}
	}

	r, err := NewShardedRunner(window, shards...)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()

	ran := 0
	for s, ts := range executed {
		ran += len(ts)
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Errorf("shard %d executed out of order: %v before %v", s, ts[i-1], ts[i])
			}
		}
	}
	if ran != total {
		t.Errorf("executed %d events, want %d", ran, total)
	}
}

// TestWindowedBarrier checks that a barrier in windowed mode runs with
// every shard parked exactly at the barrier time: no event before it
// is pending, no event at or after it has run.
func TestWindowedBarrier(t *testing.T) {
	shards := []*Engine{{}, {}}
	var mu sync.Mutex
	var before, after int
	for _, e := range shards {
		e := e
		for i := 0; i < 20; i++ {
			at := time.Duration(i) * 7 * time.Second
			e.Schedule(at, func() {
				mu.Lock()
				if at < 60*time.Second {
					before++
				} else {
					after++
				}
				mu.Unlock()
			})
		}
	}
	r, err := NewShardedRunner(13*time.Second, shards...)
	if err != nil {
		t.Fatal(err)
	}
	var seenBefore, seenAfter int
	r.AddBarrier(60*time.Second, func() {
		mu.Lock()
		seenBefore, seenAfter = before, after
		mu.Unlock()
		for i, e := range shards {
			if e.Now() != 60*time.Second {
				t.Errorf("shard %d clock at barrier = %v, want 60s", i, e.Now())
			}
		}
	})
	r.Run()

	if seenBefore != 2*9 { // events at 0,7,...,56 per shard
		t.Errorf("events before barrier when it ran = %d, want 18", seenBefore)
	}
	if seenAfter != 0 {
		t.Errorf("events at/after barrier already run = %d, want 0", seenAfter)
	}
}

// TestBarrierInEventGap pins the clock invariant when a barrier falls
// inside an event gap longer than the window (and after the last
// event): every shard must still park exactly at the barrier time
// before the action runs, in both windowed and merged modes.
func TestBarrierInEventGap(t *testing.T) {
	for _, window := range []time.Duration{0, 10 * time.Second} {
		shards := []*Engine{{}, {}}
		for _, e := range shards {
			e := e
			e.Schedule(0, func() {})
			e.Schedule(100*time.Second, func() {})
		}
		r, err := NewShardedRunner(window, shards...)
		if err != nil {
			t.Fatal(err)
		}
		check := func(at time.Duration) func() {
			return func() {
				for i, e := range shards {
					if e.Now() != at {
						t.Errorf("window %v: shard %d clock at %v-barrier = %v", window, i, at, e.Now())
					}
				}
			}
		}
		r.AddBarrier(50*time.Second, check(50*time.Second))   // mid-gap
		r.AddBarrier(200*time.Second, check(200*time.Second)) // past the last event
		r.Run()
	}
}

// TestShardedRunnerValidation rejects bad construction.
func TestShardedRunnerValidation(t *testing.T) {
	if _, err := NewShardedRunner(0); err == nil {
		t.Error("no shards must be rejected")
	}
	if _, err := NewShardedRunner(-time.Second, &Engine{}); err == nil {
		t.Error("negative window must be rejected")
	}
}

// TestMergedCrossShardTieBreak pins the merge's deterministic
// tie-break: equal-time events on different shards run in shard-index
// order, regardless of the order the shards were wired. Sub-VP
// sharding relies on this being deterministic (one vantage point's
// hour batches land on several shards at exactly coinciding times);
// bit-identity to a single engine additionally requires such tied
// events not to touch shared state, which the ytcdn-level property
// suite pins.
func TestMergedCrossShardTieBreak(t *testing.T) {
	a, b, c := &Engine{}, &Engine{}, &Engine{}
	var order []string
	for _, at := range []time.Duration{time.Second, 2 * time.Second} {
		at := at
		// Wire in reverse shard order to prove wiring order is irrelevant.
		c.Schedule(at, func() { order = append(order, "c") })
		b.Schedule(at, func() { order = append(order, "b") })
		a.Schedule(at, func() { order = append(order, "a") })
	}
	r, err := NewShardedRunner(0, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	want := "abcabc"
	if got := strings.Join(order, ""); got != want {
		t.Errorf("tied events ran in order %q, want shard-index order %q", got, want)
	}
}

// TestMergedBarrierSchedulesEvents pins the re-peek fix: a barrier
// action that schedules events must have them merged in time order,
// not run after a stale pre-barrier pick — including events scheduled
// by barriers beyond the last originally-wired event.
func TestMergedBarrierSchedulesEvents(t *testing.T) {
	shards := []*Engine{{}, {}}
	var log []string
	shards[0].Schedule(10*time.Second, func() { log = append(log, "a@10") })

	r, err := NewShardedRunner(0, shards...)
	if err != nil {
		t.Fatal(err)
	}
	// Fires before a@10 and schedules an earlier cross-shard event: the
	// old loop would have stepped the stale pick (a@10) first.
	r.AddBarrier(5*time.Second, func() {
		log = append(log, "bar@5")
		shards[1].Schedule(7*time.Second, func() { log = append(log, "b@7") })
	})
	// A trailing barrier that schedules work: the old trailing loop
	// fired barriers only, orphaning the event inside fireBarrier's
	// clock advance on the NEXT trailing barrier (shard order, not
	// merge order) or dropping it entirely after the last barrier.
	r.AddBarrier(20*time.Second, func() {
		log = append(log, "bar@20")
		shards[0].Schedule(21*time.Second, func() { log = append(log, "a@21") })
		shards[1].Schedule(21*time.Second, func() { log = append(log, "b@21") })
	})
	r.AddBarrier(30*time.Second, func() { log = append(log, "bar@30") })
	r.Run()

	want := []string{"bar@5", "b@7", "a@10", "bar@20", "a@21", "b@21", "bar@30"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

// TestWindowedBarrierSchedulesEvents is the windowed-mode twin: events
// scheduled by a (trailing) barrier must still run, and a barrier
// falling exactly on a window boundary fires with every clock parked
// on it before any boundary-time event runs.
func TestWindowedBarrierSchedulesEvents(t *testing.T) {
	shards := []*Engine{{}, {}}
	var mu sync.Mutex
	var ran []string
	shards[0].Schedule(0, func() { mu.Lock(); ran = append(ran, "a@0"); mu.Unlock() })

	r, err := NewShardedRunner(10*time.Second, shards...)
	if err != nil {
		t.Fatal(err)
	}
	// 0 + window = 10s: exactly on the first window's boundary.
	r.AddBarrier(10*time.Second, func() {
		mu.Lock()
		defer mu.Unlock()
		ran = append(ran, "bar@10")
		for i, e := range shards {
			if e.Now() != 10*time.Second {
				t.Errorf("shard %d clock at boundary barrier = %v", i, e.Now())
			}
		}
		shards[1].Schedule(10*time.Second, func() { mu.Lock(); ran = append(ran, "b@10"); mu.Unlock() })
	})
	r.AddBarrier(40*time.Second, func() {
		mu.Lock()
		defer mu.Unlock()
		ran = append(ran, "bar@40")
		shards[0].Schedule(45*time.Second, func() { mu.Lock(); ran = append(ran, "a@45"); mu.Unlock() })
	})
	r.Run()

	want := []string{"a@0", "bar@10", "b@10", "bar@40", "a@45"}
	if !reflect.DeepEqual(ran, want) {
		t.Errorf("ran = %v, want %v", ran, want)
	}
}

// TestShardedRunnerRejectsNilAndDuplicateShards pins the construction
// validation: a nil engine or the same engine wired twice used to be
// accepted and fail only later as a data race or a double-stepped
// queue.
func TestShardedRunnerRejectsNilAndDuplicateShards(t *testing.T) {
	if _, err := NewShardedRunner(0, &Engine{}, nil); err == nil {
		t.Error("nil shard must be rejected")
	}
	e := &Engine{}
	if _, err := NewShardedRunner(0, e, &Engine{}, e); err == nil {
		t.Error("duplicate shard must be rejected")
	}
}

// TestAddBarrierAfterRunPanics pins the mid-run registration guard.
func TestAddBarrierAfterRunPanics(t *testing.T) {
	r, err := NewShardedRunner(0, &Engine{})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	defer func() {
		if recover() == nil {
			t.Error("AddBarrier after Run did not panic")
		}
	}()
	r.AddBarrier(time.Second, func() {})
}
