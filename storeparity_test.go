package ytcdn

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// TestStoreParity is the disk-store acceptance gate: the same study
// run through capture.MemSink and through the disk-backed tracestore
// must produce byte-identical tables and figures, because the analysis
// consumes an unordered record multiset either way.
func TestStoreParity(t *testing.T) {
	opts := Options{Scale: 0.01, Span: 2 * 24 * time.Hour, Seed: 99}

	memStudy, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	diskOpts := opts
	diskOpts.Store = &StoreOptions{Dir: t.TempDir(), SegmentRecords: 1024}
	diskStudy, err := Run(diskOpts)
	if err != nil {
		t.Fatal(err)
	}

	if memStudy.TotalFlows() != diskStudy.TotalFlows() {
		t.Fatalf("TotalFlows: mem %d, disk %d", memStudy.TotalFlows(), diskStudy.TotalFlows())
	}
	if dir := diskStudy.StoreDir(); dir == "" {
		t.Error("disk study must report its store directory")
	}
	if memStudy.StoreDir() != "" {
		t.Error("in-memory study must report no store directory")
	}

	// Per-dataset record multisets must match (the store reorders
	// within segments by start time, so compare via sorted copies).
	for _, name := range DatasetNames() {
		memRecs := memStudy.Trace(name)
		diskRecs, err := capture.Collect(diskStudy.TraceIter(name))
		if err != nil {
			t.Fatal(err)
		}
		if len(memRecs) != len(diskRecs) {
			t.Fatalf("%s: mem %d records, disk %d", name, len(memRecs), len(diskRecs))
		}
		counts := make(map[capture.FlowRecord]int, len(memRecs))
		for _, r := range memRecs {
			counts[r]++
		}
		for _, r := range diskRecs {
			counts[r]--
		}
		for r, c := range counts {
			if c != 0 {
				t.Fatalf("%s: record multiset differs at %+v (delta %d)", name, r, c)
			}
		}
	}

	var memOut, diskOut bytes.Buffer
	if err := memStudy.Experiments().RunAll(&memOut); err != nil {
		t.Fatal(err)
	}
	if err := diskStudy.Experiments().RunAll(&diskOut); err != nil {
		t.Fatal(err)
	}
	if memOut.String() != diskOut.String() {
		t.Errorf("rendered output differs between MemSink and tracestore paths:\n--- mem ---\n%s\n--- disk ---\n%s",
			memOut.String(), diskOut.String())
	}
}

// TestStoreStudyTraceAccessors exercises the disk-backed Study surface
// used by examples and cmds.
func TestStoreStudyTraceAccessors(t *testing.T) {
	s, err := Run(Options{
		Scale: 0.002, Span: 24 * time.Hour,
		Store: &StoreOptions{Dir: t.TempDir(), SegmentRecords: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, name := range DatasetNames() {
		recs := s.Trace(name)
		it := s.TraceIter(name)
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if n != len(recs) {
			t.Errorf("%s: TraceIter %d records, Trace %d", name, n, len(recs))
		}
		total += n
	}
	if total != s.TotalFlows() {
		t.Errorf("sum of traces %d, TotalFlows %d", total, s.TotalFlows())
	}
}

// TestRejectsNegativeSpanAndScale pins the option checks that must
// run before anything touches disk: every option error Run and
// RunWorld return must leave an existing store byte-identical. A
// negative Span used to be caught only by the simulator, after the
// store writer had replaced the store's shard files; a negative Scale
// returned an empty study.
func TestRejectsNegativeSpanAndScale(t *testing.T) {
	dir := t.TempDir()
	good := Options{Scale: 0.002, Span: 24 * time.Hour, Store: &StoreOptions{Dir: dir}}
	if _, err := Run(good); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	before := snapshot()
	if len(before) == 0 {
		t.Fatal("the good run wrote no shard files")
	}

	w, err := topology.BuildPaperWorld(topology.PaperConfig{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Options){
		"negative span":         func(o *Options) { o.Span = -time.Hour },
		"negative scale":        func(o *Options) { o.Scale = -0.002 },
		"invalid policy":        func(o *Options) { o.Policy = &core.PaperPolicy{SpillCandidates: 0} },
		"switch to nil":         func(o *Options) { o.PolicySwitch = &PolicySwitch{At: time.Hour, To: nil} },
		"switch at span end":    func(o *Options) { o.PolicySwitch = &PolicySwitch{At: o.Span, To: core.ProximityOnly{}} },
		"negative segment size": func(o *Options) { o.Store = &StoreOptions{Dir: dir, SegmentRecords: -1} },
	} {
		opts := good
		mutate(&opts)
		if _, err := Run(opts); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
		if !reflect.DeepEqual(snapshot(), before) {
			t.Fatalf("%s: Run changed the existing store directory", name)
		}
		if _, err := RunWorld(w, opts); err == nil {
			t.Errorf("%s: RunWorld accepted it", name)
		}
		if !reflect.DeepEqual(snapshot(), before) {
			t.Fatalf("%s: RunWorld changed the existing store directory", name)
		}
	}
}

// TestAnalysisBoundedMemory is the regression gate for the streaming
// Google-AS pipeline: running the ENTIRE experiment suite over a
// disk-backed study — including the sessionizing figures, which now
// consume StreamSessions over ScanByStart instead of a materialized
// Google subset — must never buffer more than a small constant number
// of decoded segments per dataset. The bound is expressed against the
// decoded size of the full trace: if someone reintroduces a
// materializing pass (a capture.Collect of a dataset, or sessions
// built from a collected slice) through the reader, the peak jumps to
// ~100% and this test fails loudly.
func TestAnalysisBoundedMemory(t *testing.T) {
	const segRecords = 2048
	opts := Options{Scale: 0.05, Span: 7 * 24 * time.Hour, Parallelism: 4}
	opts.Store = &StoreOptions{Dir: t.TempDir(), SegmentRecords: segRecords}
	s, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Experiments().RunAll(io.Discard); err != nil {
		t.Fatal(err)
	}

	// ~64 bytes per decoded record (the reader's own gauge constant),
	// ignoring the small shared dictionary strings.
	approxTotal := s.store.TotalRecords() * 64
	peak := s.store.PeakBufferedBytes()
	if peak == 0 {
		t.Fatal("peak buffered bytes is zero; the suite did not stream from the store")
	}
	// Generous ceiling: 20% of the trace (measured ~5%). Materializing
	// any full dataset would exceed it several times over.
	if limit := approxTotal / 5; peak > limit {
		t.Errorf("peak buffered bytes = %d, want <= %d (~20%% of the %d-record trace); a pass is materializing the trace",
			peak, limit, s.store.TotalRecords())
	}
}
