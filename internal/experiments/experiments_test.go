package experiments

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/cdn"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/des"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
	"github.com/ytcdn-sim/ytcdn/internal/workload"
)

// buildInput assembles a tiny two-day study without going through the
// public facade (the experiments package cannot import the root
// package).
func buildInput(t *testing.T) Input {
	t.Helper()
	const seed = 7
	span := 2 * 24 * time.Hour
	w, err := topology.BuildPaperWorld(topology.PaperConfig{Scale: 0.02, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := content.NewCatalog(content.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlacement(w, cat, core.OriginPolicy{CopiesPerVideo: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewSelector(w, pl, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var eng des.Engine
	sink := capture.NewMemSink()
	root := stats.NewRNG(seed)
	sim, err := cdn.NewSimulator(w, cat, sel, &eng, sink, cdn.DefaultConfig(), root.Fork("player"), span)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.VantagePoints {
		gen, err := workload.NewGenerator(w, i, cat, span, root.Fork("wl-"+w.VantagePoints[i].Name))
		if err != nil {
			t.Fatal(err)
		}
		gen.Schedule(&eng, sim.SubmitSession)
	}
	eng.Run()

	traces := make(capture.MapSource)
	for _, name := range topology.DatasetNames() {
		traces[name] = sink.Trace(name)
	}
	return Input{World: w, Catalog: cat, Placement: pl, Source: traces, Span: span, Seed: seed}
}

func TestRunAllRendersEveryExperiment(t *testing.T) {
	h := New(buildInput(t))
	var buf bytes.Buffer
	if err := h.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"TABLE I", "TABLE II", "TABLE III",
		"FIG 2", "FIG 3", "FIG 4", "FIG 5", "FIG 6", "FIG 7", "FIG 8",
		"FIG 9", "FIG 10a", "FIG 10b", "FIG 11", "FIG 12", "FIG 13",
		"FIG 14", "FIG 15", "FIG 16", "FIG 17", "FIG 18",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, name := range topology.DatasetNames() {
		if !strings.Contains(out, name) {
			t.Errorf("output missing dataset %s", name)
		}
	}
}

// TestAccessorCopyDiscipline pins that the exported map accessors hand
// out copies: a caller deleting entries from a returned map must not
// corrupt the harness's cached geolocation pipeline output.
func TestAccessorCopyDiscipline(t *testing.T) {
	h := New(buildInput(t))
	regions, err := h.Geolocate()
	if err != nil {
		t.Fatal(err)
	}
	locs, err := h.Locations()
	if err != nil {
		t.Fatal(err)
	}
	nRegions, nLocs := len(regions), len(locs)
	if nRegions == 0 || nLocs == 0 {
		t.Fatal("geolocation produced no servers; fixture too small for this test")
	}
	for addr := range regions {
		delete(regions, addr)
	}
	for addr := range locs {
		delete(locs, addr)
	}
	regions2, err := h.Geolocate()
	if err != nil {
		t.Fatal(err)
	}
	if len(regions2) != nRegions {
		t.Errorf("cached region map shrank from %d to %d after caller-side deletes", nRegions, len(regions2))
	}
	locs2, err := h.Locations()
	if err != nil {
		t.Fatal(err)
	}
	if len(locs2) != nLocs {
		t.Errorf("cached location map shrank from %d to %d after caller-side deletes", nLocs, len(locs2))
	}
}

func TestHarnessCaching(t *testing.T) {
	h := New(buildInput(t))
	r1, err := h.Geolocate()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Geolocate()
	if err != nil {
		t.Fatal(err)
	}
	if &r1 == &r2 {
		t.Skip("map headers differ") // defensive; maps compared below
	}
	if len(r1) != len(r2) {
		t.Error("geolocation not cached consistently")
	}
	ds1, err := h.Dataset(topology.DatasetEU2)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := h.Dataset(topology.DatasetEU2)
	if err != nil {
		t.Fatal(err)
	}
	if ds1 != ds2 {
		t.Error("dataset artifacts not cached")
	}
}

// TestConcurrentHarnessAccess hammers one harness from many
// goroutines; with -race this proves the once-guarded caches hold up,
// and every caller must observe the same cached artifacts.
func TestConcurrentHarnessAccess(t *testing.T) {
	in := buildInput(t)
	in.Parallelism = 4
	h := New(in)
	const workers = 8
	type out struct {
		ds  *dataset
		n   int
		err error
	}
	results := make([]out, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		k := k
		go func() {
			defer wg.Done()
			regions, err := h.Geolocate()
			if err != nil {
				results[k].err = err
				return
			}
			ds, err := h.Dataset(topology.DatasetEU2)
			results[k] = out{ds: ds, n: len(regions), err: err}
		}()
	}
	wg.Wait()
	for k, r := range results {
		if r.err != nil {
			t.Fatalf("worker %d: %v", k, r.err)
		}
		if r.ds != results[0].ds {
			t.Errorf("worker %d got a different dataset pointer", k)
		}
		if r.n != results[0].n {
			t.Errorf("worker %d saw %d regions, worker 0 saw %d", k, r.n, results[0].n)
		}
	}
}

// TestWarmMakesExperimentsCheap warms in parallel and checks every
// dataset cell is populated.
func TestWarmMakesExperimentsCheap(t *testing.T) {
	in := buildInput(t)
	in.Parallelism = 4
	h := New(in)
	if err := h.Warm(); err != nil {
		t.Fatal(err)
	}
	for _, name := range h.DatasetNames() {
		c := &h.cells(name).dataset
		if c.val == nil && c.err == nil {
			t.Errorf("dataset %s not warmed", name)
			continue
		}
		if c.val == nil || c.err != nil {
			t.Errorf("dataset %s cell: val=%v err=%v", name, c.val, c.err)
		}
	}
}

func TestDatasetUnknownName(t *testing.T) {
	h := New(buildInput(t))
	if _, err := h.Dataset("nope"); err == nil {
		t.Error("unknown dataset must error")
	}
}

func TestDatasetNamesOrder(t *testing.T) {
	h := New(buildInput(t))
	names := h.DatasetNames()
	want := topology.DatasetNames()
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("order mismatch at %d: %s vs %s", i, names[i], want[i])
		}
	}
}

// countingSource counts the scans Iter and ScanByStart open per
// dataset. It overrides both: the embedded source's ScanByStart reads
// its records without calling this Iter.
type countingSource struct {
	capture.TraceSource
	mu    sync.Mutex
	scans map[string]int
}

func (s *countingSource) count(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scans[name]++
}

func (s *countingSource) Iter(name string) capture.Iterator {
	s.count(name)
	return s.TraceSource.Iter(name)
}

func (s *countingSource) ScanByStart(name string) capture.Iterator {
	s.count(name)
	return s.TraceSource.ScanByStart(name)
}

// countScans builds a harness whose source counts its scans.
func countScans(t *testing.T, parallelism int) (*Harness, *countingSource) {
	in := buildInput(t)
	src := &countingSource{TraceSource: in.Source, scans: make(map[string]int)}
	in.Source = src
	in.Parallelism = parallelism
	return New(in), src
}

// TestCensusScansEachDatasetOnce pins the census: Tables I and II,
// Fig 4, the localization server set and every ping campaign read one
// scan of each dataset, whatever the pool size.
func TestCensusScansEachDatasetOnce(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		h, src := countScans(t, parallelism)
		if _, err := h.TableI(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.TableII(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Fig04FlowSizes(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Geolocate(); err != nil {
			t.Fatal(err)
		}
		for _, name := range h.DatasetNames() {
			if _, err := h.campaign(name); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range topology.DatasetNames() {
			if got := src.scans[name]; got != 1 {
				t.Errorf("parallelism %d: %s scanned %d times, want 1", parallelism, name, got)
			}
		}
	}
}

// TestSuiteScanCounts pins how many scans the whole suite opens per
// dataset: the census, the preferred-DC and per-video passes, one
// start-ordered scan per sessionizing pass (the T=1s tally, Fig 5 on
// US-Campus, Fig 16 on EU1-ADSL), and the figures' own passes, most of
// them on EU1-ADSL.
func TestSuiteScanCounts(t *testing.T) {
	h, src := countScans(t, 2)
	if err := h.Warm(); err != nil {
		t.Fatal(err)
	}
	if err := h.RunAll(io.Discard); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		topology.DatasetUSCampus:  7,
		topology.DatasetEU1Campus: 5,
		topology.DatasetEU1ADSL:   12,
		topology.DatasetEU1FTTH:   5,
		topology.DatasetEU2:       6,
	}
	for name, n := range want {
		if got := src.scans[name]; got != n {
			t.Errorf("%s scanned %d times, want %d", name, got, n)
		}
	}
}
