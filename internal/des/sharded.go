package des

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// ShardedRunner advances several independent engines ("shards") over
// one shared simulated timeline. It exists because the simulated
// vantage points couple only through slowly-varying shared state (the
// selection engine's load view): their event streams can run on
// separate goroutines as long as no shard races arbitrarily far ahead
// of the others.
//
// Synchronization is conservative time-windowed lockstep, controlled
// by the window passed to NewShardedRunner:
//
//   - window == 0 degenerates to a sequential k-way merge: the runner
//     repeatedly steps the shard with the earliest pending event (ties
//     by shard index), which executes the union of all shards' events
//     in exactly the order a single engine would. There is no
//     concurrency and no staleness — the run is bit-identical to the
//     unsharded simulation.
//   - window > 0 runs the shards concurrently, one goroutine per
//     shard, in half-open windows [t, t+window): every shard executes
//     all of its events inside the window, then all shards barrier
//     before the next window begins. A shard can therefore observe
//     shared state that is stale by at most one window — the price of
//     near-linear speedup.
//
// Barriers registered with At run between windows, when every shard's
// clock sits exactly on the barrier time: they are the hook for global
// scenario actions (a mid-run policy switch) that must not interleave
// with event execution. With window == 0 a barrier runs after all
// events strictly before its time and before any event at or after it.
type ShardedRunner struct {
	shards   []*Engine
	window   time.Duration
	barriers []barrier
	// started flips when Run begins; AddBarrier panics afterwards
	// (a barrier registered mid-run would be silently missorted or
	// skipped depending on how far the run has progressed).
	started bool

	// Optional instruments (see Instrument). All three count pure
	// event-structure facts — windows advanced, barriers fired, shards
	// idle across a window — so recording them never perturbs the run.
	windows      *obs.Counter
	barrierFires *obs.Counter
	stalls       *obs.Counter
}

type barrier struct {
	at  time.Duration
	seq int // preserves registration order among equal times
	run func()
}

// NewShardedRunner wraps the given engines. window selects the
// synchronization mode (see the type comment); it must be >= 0 and at
// least one engine must be given.
func NewShardedRunner(window time.Duration, shards ...*Engine) (*ShardedRunner, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("des: sharded runner needs at least one engine")
	}
	if window < 0 {
		return nil, fmt.Errorf("des: sync window %v must be >= 0", window)
	}
	seen := make(map[*Engine]int, len(shards))
	for i, e := range shards {
		if e == nil {
			return nil, fmt.Errorf("des: shard %d is nil", i)
		}
		if j, dup := seen[e]; dup {
			return nil, fmt.Errorf("des: shards %d and %d are the same engine", j, i)
		}
		seen[e] = i
	}
	return &ShardedRunner{shards: shards, window: window}, nil
}

// Instrument publishes the runner's progress into reg:
// "sim.runner.windows" (lockstep windows completed),
// "sim.runner.barriers" (global barrier actions fired), and
// "sim.runner.window_stalls" (shard-windows in which a shard executed
// no events — shards parked at the barrier waiting for stragglers).
// It also registers per-shard live gauges "sim.shard.<i>.queue_depth",
// "sim.shard.<i>.events" and "sim.shard.<i>.now_seconds", plus the
// aggregate "sim.des.events". Instrument must be called before Run.
func (r *ShardedRunner) Instrument(reg *obs.Registry) {
	r.windows = reg.Counter("sim.runner.windows")
	r.barrierFires = reg.Counter("sim.runner.barriers")
	r.stalls = reg.Counter("sim.runner.window_stalls")
	for i, e := range r.shards {
		e := e
		prefix := fmt.Sprintf("sim.shard.%d.", i)
		reg.GaugeFunc(prefix+"events", func() float64 {
			executed, _, _ := e.LiveStats()
			return float64(executed)
		})
		reg.GaugeFunc(prefix+"queue_depth", func() float64 {
			_, depth, _ := e.LiveStats()
			return float64(depth)
		})
		reg.GaugeFunc(prefix+"now_seconds", func() float64 {
			_, _, now := e.LiveStats()
			return now.Seconds()
		})
	}
	shards := r.shards
	reg.GaugeFunc("sim.des.events", func() float64 {
		var total int64
		for _, e := range shards {
			total += e.Executed()
		}
		return float64(total)
	})
}

// AddBarrier registers a global action at the given simulated time.
// Barriers at the same time run in registration order. AddBarrier
// panics if called after Run has started: the barrier schedule is
// sorted once at Run, so a late registration would be silently
// missorted or skipped.
func (r *ShardedRunner) AddBarrier(at time.Duration, run func()) {
	if r.started {
		panic("des: AddBarrier after Run has started")
	}
	r.barriers = append(r.barriers, barrier{at: at, seq: len(r.barriers), run: run})
}

// Run executes all shards to exhaustion, honouring the registered
// barriers. Any barriers beyond the last event still run, in order.
func (r *ShardedRunner) Run() {
	r.started = true
	sort.Slice(r.barriers, func(i, j int) bool {
		if r.barriers[i].at != r.barriers[j].at {
			return r.barriers[i].at < r.barriers[j].at
		}
		return r.barriers[i].seq < r.barriers[j].seq
	})
	if r.window == 0 {
		r.runMerged()
	} else {
		r.runWindowed()
	}
}

// runMerged is the window-0 mode: a sequential k-way merge that steps
// one event at a time, always from the shard whose next event is
// earliest. Equal-time events on different shards run in shard-index
// order — a deterministic tie-break, but NOT in general a single
// engine's scheduling order (round-robin bucket→shard wiring puts e.g.
// VP 2 on shard 0 ahead of VP 1 on shard 1, and sub-VP sharding puts
// several buckets of ONE vantage point on different shards with their
// hour batches exactly coinciding). Bit-identity to the single engine
// therefore rests on two properties of the event population, not on
// tie order: events wired before the run at coinciding times (the
// per-subnet hour batches of the workload generators) draw only from
// their own forked RNG streams, touch no shared state and record
// nothing, so their relative order is unobservable; and events
// scheduled during the run carry continuous time offsets, so
// cross-shard ties among them are measure-zero. Anyone adding
// pre-wired tied events that touch the selector, placement or sink
// breaks the guarantee — the sharding property tests pin it
// empirically at both granularities.
// Barrier actions may schedule events, so the loop re-peeks after
// every barrier instead of stepping a pre-barrier best (which could
// have been overtaken by an event the barrier just scheduled), and
// barriers beyond the last event fire inside the same loop so that
// events THEY schedule are merged too rather than orphaned.
func (r *ShardedRunner) runMerged() {
	bi := 0
	for {
		best := -1
		var bestAt time.Duration
		for i, e := range r.shards {
			at, ok := e.PeekTime()
			if !ok {
				continue
			}
			if best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			// No events pending; remaining barriers still fire, and any
			// events a barrier schedules re-enter the merge.
			if bi >= len(r.barriers) {
				return
			}
			r.fireBarrier(r.barriers[bi])
			bi++
			continue
		}
		if bi < len(r.barriers) && r.barriers[bi].at <= bestAt {
			r.fireBarrier(r.barriers[bi])
			bi++
			continue
		}
		r.shards[best].Step()
	}
}

// fireBarrier parks every shard's clock exactly at the barrier time,
// then runs the action. By the time a barrier fires no shard has a
// pending event before it, so the RunBefore calls execute nothing —
// they only advance clocks, keeping the documented invariant (every
// shard sits at the barrier time) even when the barrier falls in an
// event gap or after the last event.
func (r *ShardedRunner) fireBarrier(b barrier) {
	for _, e := range r.shards {
		e.RunBefore(b.at)
	}
	b.run()
	if r.barrierFires != nil {
		r.barrierFires.Inc()
	}
}

// runWindowed is the concurrent mode: shards advance in lockstep
// windows, each on its own goroutine. Windows are anchored at the
// earliest pending event so stretches with no events are skipped in
// one step instead of being walked window by window.
// Like runMerged, the loop fires one barrier at a time and re-peeks:
// a barrier that schedules events must see them anchor the next
// window, and trailing barriers fold into the main loop for the same
// reason. A barrier exactly on a window boundary needs no special
// case — the window runs strictly-before semantics, so the boundary
// event population is untouched and the barrier fires next iteration
// with every clock parked on it.
func (r *ShardedRunner) runWindowed() {
	bi := 0
	for {
		lo := time.Duration(-1)
		for _, e := range r.shards {
			if at, ok := e.PeekTime(); ok && (lo < 0 || at < lo) {
				lo = at
			}
		}
		if lo < 0 {
			if bi >= len(r.barriers) {
				return
			}
			r.fireBarrier(r.barriers[bi])
			bi++
			continue
		}
		if bi < len(r.barriers) && r.barriers[bi].at <= lo {
			r.fireBarrier(r.barriers[bi])
			bi++
			continue
		}
		next := lo + r.window
		if bi < len(r.barriers) && r.barriers[bi].at < next {
			next = r.barriers[bi].at
		}
		before := make([]int64, len(r.shards))
		for i, e := range r.shards {
			before[i] = e.Executed()
		}
		var wg sync.WaitGroup
		for _, e := range r.shards {
			e := e
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.RunBefore(next)
			}()
		}
		wg.Wait()
		if r.windows != nil {
			r.windows.Inc()
			for i, e := range r.shards {
				if e.Executed() == before[i] {
					r.stalls.Inc()
				}
			}
		}
	}
}
