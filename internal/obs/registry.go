package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"sync"
)

// SnapshotSchema identifies the /metrics JSON shape. Bump it when the
// snapshot layout changes incompatibly.
const SnapshotSchema = "ytcdn.metrics/v1"

// Registry holds named instruments. Names are dotted paths carrying
// the plane as their first segment by convention: "sim.*" for
// deterministic (sim-time / event-count) instruments, "wall.*" for
// wall-clock instruments registered by the harness and cmd layers,
// "store.*" for tracestore byte accounting. Lookups get-or-create, so
// independent subsystems recording under one name share the
// instrument (how concurrent studies aggregate into one counter).
//
// A Registry is safe for concurrent use; a nil *Registry is a valid
// no-op target for Snapshot-free helpers, but instrument lookups
// require a non-nil registry (callers gate on their own nil handles).
type Registry struct {
	mu sync.Mutex // guards the maps; instruments themselves are atomic
	// guarded by mu
	counters map[string]*Counter
	// guarded by mu
	gaugeFuncs map[string]func() float64
	// guarded by mu
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gaugeFuncs: make(map[string]func() float64),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GaugeFunc registers a derived gauge evaluated at snapshot time. The
// function must be safe to call from any goroutine; registering a name
// twice keeps the latest function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Snapshot is one consistent-enough rendering of every instrument:
// counters are atomic loads, histograms summarize whatever
// observations had landed by the time their buckets were read, and
// gauges are the GaugeFuncs evaluated during the snapshot.
type Snapshot struct {
	Schema     string                       `json:"schema"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot renders the registry. The maps are fresh copies, safe for
// the caller to hold while instruments keep moving.
func (r *Registry) Snapshot() Snapshot {
	// Evaluate outside the lock: gauge funcs may themselves snapshot
	// other state, and instrument reads are atomic.
	counters, funcs, hists := r.instruments()
	s := Snapshot{
		Schema:     SnapshotSchema,
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range funcs {
		s.Gauges[name] = fn()
	}
	for name, h := range hists {
		s.Histograms[name] = h.SnapshotValues()
	}
	return s
}

// instruments copies the instrument maps under the lock.
func (r *Registry) instruments() (map[string]*Counter, map[string]func() float64, map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.counters), maps.Clone(r.gaugeFuncs), maps.Clone(r.histograms)
}

// MarshalJSON renders the snapshot with a fixed field order and sorted
// keys (encoding/json sorts map keys), so two snapshots of identical
// instrument state are byte-identical.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot // strip the method to avoid recursion
	return json.Marshal(alias(s))
}

// ValidateSnapshotJSON checks that data parses as a metrics snapshot
// of the current schema with all three sections present. It is the
// check the golden scrape test and the CI /metrics smoke share.
func ValidateSnapshotJSON(data []byte) error {
	var s struct {
		Schema     string                        `json:"schema"`
		Counters   *map[string]int64             `json:"counters"`
		Gauges     *map[string]float64           `json:"gauges"`
		Histograms *map[string]HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("obs: metrics snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("obs: metrics snapshot schema %q, want %q", s.Schema, SnapshotSchema)
	}
	for section, missing := range map[string]bool{
		"counters":   s.Counters == nil,
		"gauges":     s.Gauges == nil,
		"histograms": s.Histograms == nil,
	} {
		if missing {
			return fmt.Errorf("obs: metrics snapshot has no %q section", section)
		}
	}
	return nil
}

// Names returns every registered instrument name, sorted — handy for
// tests asserting the instrument population.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gaugeFuncs {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
