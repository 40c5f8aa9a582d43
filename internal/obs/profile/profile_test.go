package profile

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// TestNilProfilerPhase pins the typed-nil contract: a nil *Profiler
// handed through an interface (experiments.Profiler) defeats the
// caller's == nil check, so Phase itself must be the no-op.
func TestNilProfilerPhase(t *testing.T) {
	var p *Profiler
	done := p.Phase("anything")
	done() // must not panic
}

// TestProfilerAccumulates times one phase repeatedly, then from
// several goroutines at once as Warm's workers do; under -race the
// calls counter must end at the total number of timed calls.
func TestProfilerAccumulates(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewProfiler(reg)
	for i := 0; i < 3; i++ {
		done := p.Phase("probing")
		done()
	}
	snap := reg.Snapshot()
	if got := snap.Counters["wall.phase.probing.calls"]; got != 3 {
		t.Errorf("calls = %d, want 3", got)
	}
	if _, ok := snap.Gauges["wall.phase.probing.seconds"]; !ok {
		t.Error("wall.phase.probing.seconds gauge not registered")
	}

	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer p.Phase("analysis")()
			reg.Snapshot() // a scrape racing the phase's registration
		}()
	}
	wg.Wait()
	snap = reg.Snapshot()
	if got := snap.Counters["wall.phase.analysis.calls"]; got != workers {
		t.Errorf("concurrent calls = %d, want %d", got, workers)
	}
	nanos := snap.Counters["wall.phase.analysis.nanos"]
	if got := snap.Gauges["wall.phase.analysis.seconds"]; got != float64(nanos)/float64(time.Second) {
		t.Errorf("seconds gauge %v does not read the nanos counter %d", got, nanos)
	}
}

func TestProcessGauges(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterProcessGauges(reg, time.Now())
	snap := reg.Snapshot()
	for _, name := range []string{
		"wall.process.goroutines", "wall.process.heap_alloc_bytes",
		"wall.process.total_alloc_bytes", "wall.process.gc_cycles",
		"wall.process.uptime_seconds",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s not registered", name)
		}
	}
	if snap.Gauges["wall.process.goroutines"] < 1 {
		t.Error("goroutine gauge < 1")
	}
}

// TestProgressLine: the periodic reporter writes progress lines to the
// writer and the stop function flushes a final one.
func TestProgressLine(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("sim.cdn.sessions").Add(5)
	var sb strings.Builder
	stop := StartProgress(&sb, reg, time.Hour) // interval never fires; stop writes the final line
	stop()
	out := sb.String()
	if !strings.Contains(out, "sim.cdn.sessions=5") {
		t.Errorf("progress line missing counter: %q", out)
	}
	if !strings.Contains(out, "progress ") {
		t.Errorf("progress line missing prefix: %q", out)
	}
}
