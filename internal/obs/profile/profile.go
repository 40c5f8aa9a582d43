// Package profile is the wall-clock plane of the observability layer:
// per-phase pipeline timing, process gauges and the periodic stderr
// progress line. It reads the wall clock, so the obsplane lint rule
// forbids the deterministic core packages (internal/{cdn,core,des,
// workload}) from importing it — only the harness and cmd layers may.
package profile

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// Profiler accumulates wall-clock time per named pipeline phase and
// publishes each phase as the counters "wall.phase.<name>.nanos" and
// "wall.phase.<name>.calls" plus the gauge "wall.phase.<name>.seconds".
// It is safe for concurrent use; nested and repeated phases
// accumulate. It keeps no state of its own: the registry's
// get-or-create hands every call of a phase the same counters.
type Profiler struct {
	reg *obs.Registry
}

// NewProfiler returns a profiler publishing into reg.
func NewProfiler(reg *obs.Registry) *Profiler {
	return &Profiler{reg: reg}
}

// Phase starts timing the named phase and returns the function that
// stops it. A nil *Profiler is a valid no-op — callers hand profilers
// through interfaces (experiments.Profiler), where a typed-nil pointer
// survives the caller's == nil check. Typical use:
//
//	done := prof.Phase("probing")
//	defer done()
func (p *Profiler) Phase(name string) func() {
	if p == nil {
		return func() {}
	}
	prefix := "wall.phase." + name
	nanos := p.reg.Counter(prefix + ".nanos")
	calls := p.reg.Counter(prefix + ".calls")
	// Every call re-registers the gauge; each closure reads the same
	// counter, so which one the registry keeps does not matter.
	p.reg.GaugeFunc(prefix+".seconds", func() float64 {
		return float64(nanos.Value()) / float64(time.Second)
	})
	start := time.Now()
	return func() {
		nanos.Add(time.Since(start).Nanoseconds())
		calls.Inc()
	}
}

// RegisterProcessGauges publishes process-level wall-clock gauges:
// goroutine count, heap bytes, total allocated bytes, GC cycles and
// uptime since start.
func RegisterProcessGauges(reg *obs.Registry, start time.Time) {
	reg.GaugeFunc("wall.process.goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("wall.process.heap_alloc_bytes", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.GaugeFunc("wall.process.total_alloc_bytes", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc)
	})
	reg.GaugeFunc("wall.process.gc_cycles", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC)
	})
	reg.GaugeFunc("wall.process.uptime_seconds", func() float64 {
		return time.Since(start).Seconds()
	})
}

// StartProgress launches a goroutine writing one compact progress line
// to w every interval, summarizing the registry's counters plus
// goroutine count and uptime. The returned stop function writes one
// final line and waits for the goroutine to exit.
func StartProgress(w io.Writer, reg *obs.Registry, interval time.Duration) (stop func()) {
	start := time.Now()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				writeProgressLine(w, reg, start)
				return
			case <-t.C:
				writeProgressLine(w, reg, start)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

func writeProgressLine(w io.Writer, reg *obs.Registry, start time.Time) {
	s := reg.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "progress t=%.1fs goroutines=%d", time.Since(start).Seconds(), runtime.NumGoroutine())
	for _, n := range names {
		if strings.HasPrefix(n, "wall.phase.") {
			continue // the .seconds gauges summarize these better
		}
		fmt.Fprintf(&b, " %s=%d", n, s.Counters[n])
	}
	fmt.Fprintln(w, b.String())
}
