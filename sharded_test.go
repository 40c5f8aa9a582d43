package ytcdn

import (
	"math"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/experiments"
)

// TestShardedWindowZeroParity is the determinism suite for the sharded
// runner's exact mode: the same seed at 1, 2 and 5 shards with
// SyncWindow 0 must be bit-identical — rendered tables, ground-truth
// selection metrics, session and flow totals. Together with
// TestPolicyParity (shards=1 against the golden) this proves the
// window-0 sharded run is bit-identical to the sequential engine.
func TestShardedWindowZeroParity(t *testing.T) {
	base := Options{Scale: 0.05, Span: 7 * 24 * time.Hour}
	want := parityRender(t, base)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 5} {
		opts := base
		opts.SimShards = shards
		got := parityRender(t, opts)
		if got != want {
			t.Errorf("shards=%d window=0 diverged from the sequential engine\n--- got ---\n%s\n--- want ---\n%s", shards, got, want)
		}
		s, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.Selection != ref.Selection {
			t.Errorf("shards=%d SelectionMetrics = %+v, want %+v", shards, s.Selection, ref.Selection)
		}
		if s.Sessions != ref.Sessions {
			t.Errorf("shards=%d sessions = %d, want %d", shards, s.Sessions, ref.Sessions)
		}
		if s.TotalFlows() != ref.TotalFlows() {
			t.Errorf("shards=%d flows = %d, want %d", shards, s.TotalFlows(), ref.TotalFlows())
		}
		// Per-dataset traces are record-for-record identical, not just
		// identical in aggregate.
		for _, name := range DatasetNames() {
			a, b := s.Trace(name), ref.Trace(name)
			if len(a) != len(b) {
				t.Errorf("shards=%d %s: %d records, want %d", shards, name, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("shards=%d %s: record %d differs", shards, name, i)
					break
				}
			}
		}
	}
}

// TestShardedWindowedTolerance runs the concurrent (windowed) mode and
// pins it against the sequential run: session counts are exactly equal
// (arrivals come from the per-VP workload streams, untouched by load),
// while everything downstream of selection decisions — chain counts,
// Table I flows and volume — stays within a small tolerance of
// sequential, the documented price of bounded load staleness. Run
// under -race in CI, this is also the data race exercise for the whole
// sharded path.
func TestShardedWindowedTolerance(t *testing.T) {
	base := Options{Scale: 0.05, Span: 7 * 24 * time.Hour}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.SimShards = 5
	opts.SyncWindow = time.Minute
	win, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	if win.Sessions != seq.Sessions {
		t.Errorf("windowed sessions = %d, want %d (arrivals are per-VP deterministic)", win.Sessions, seq.Sessions)
	}

	tabSeq := tableIByDataset(t, seq)
	tabWin := tableIByDataset(t, win)
	const tol = 0.02
	if relDelta(float64(win.Selection.Chains), float64(seq.Selection.Chains)) > tol {
		t.Errorf("windowed chains = %d vs sequential %d (> %.0f%% apart)", win.Selection.Chains, seq.Selection.Chains, tol*100)
	}
	for name, sr := range tabSeq {
		wr := tabWin[name]
		if relDelta(float64(wr.Flows), float64(sr.Flows)) > tol {
			t.Errorf("%s flows: windowed %d vs sequential %d (> %.0f%% apart)", name, wr.Flows, sr.Flows, tol*100)
		}
		if relDelta(wr.GB, sr.GB) > tol {
			t.Errorf("%s volume: windowed %.2f GB vs sequential %.2f GB (> %.0f%% apart)", name, wr.GB, sr.GB, tol*100)
		}
	}
	if frac := win.Selection.PreferredFrac(); math.Abs(frac-seq.Selection.PreferredFrac()) > 0.05 {
		t.Errorf("preferred-DC fraction: windowed %.3f vs sequential %.3f", frac, seq.Selection.PreferredFrac())
	}
}

func tableIByDataset(t *testing.T, s *Study) map[string]experiments.TableIRow {
	t.Helper()
	res, err := s.Experiments().TableI()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]experiments.TableIRow, len(res.Rows))
	for _, row := range res.Rows {
		out[row.Dataset] = row
	}
	return out
}

func relDelta(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / b
}

// TestShardedPolicySwitchParity checks the scenario-timeline barrier:
// a mid-run policy switch under window-0 sharding lands at the same
// simulated instant on every shard, so the run stays bit-identical to
// the sequential switched run.
func TestShardedPolicySwitchParity(t *testing.T) {
	sw := &PolicySwitch{At: 3 * 24 * time.Hour, To: mustPolicy(t, "proximity")}
	base := Options{Scale: 0.02, Span: 6 * 24 * time.Hour, PolicySwitch: sw}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.SimShards = 5
	sh, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Selection != seq.Selection {
		t.Errorf("switched run: sharded SelectionMetrics %+v, want %+v", sh.Selection, seq.Selection)
	}
	if sh.TotalFlows() != seq.TotalFlows() {
		t.Errorf("switched run: sharded flows %d, want %d", sh.TotalFlows(), seq.TotalFlows())
	}
}

// TestStudySpanNotExceeded is the end-to-end regression for the
// capture-window overrun: no captured flow may start at or after the
// configured span (follow-up chains used to land up to ~11 minutes
// past it).
func TestStudySpanNotExceeded(t *testing.T) {
	span := 24 * time.Hour
	s, err := Run(Options{Scale: 0.01, Span: span, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range DatasetNames() {
		for _, rec := range s.Trace(name) {
			if rec.Start >= span {
				t.Fatalf("%s: flow starts at %v, at/after span %v", name, rec.Start, span)
			}
		}
	}
}

// TestSyncWindowValidation pins the window misconfigurations Run
// rejects instead of silently dropping: a negative window, and a
// window on a single-engine run (SimShards unset or 1), which would
// leave the caller believing they measured a windowed run. RunMany
// surfaces the same errors.
func TestSyncWindowValidation(t *testing.T) {
	base := Options{Scale: 0.002, Span: 24 * time.Hour}
	for name, mutate := range map[string]func(*Options){
		"negative window": func(o *Options) { o.SimShards = 2; o.SyncWindow = -time.Second },
		"no shards":       func(o *Options) { o.SyncWindow = time.Minute },
		"one shard":       func(o *Options) { o.SimShards = 1; o.SyncWindow = time.Minute },
	} {
		opts := base
		mutate(&opts)
		if _, err := Run(opts); err == nil {
			t.Errorf("%s: Run accepted %+v", name, opts)
		}
	}

	bad := base
	bad.SyncWindow = time.Minute // SimShards unset
	if _, err := RunMany([]Options{base, bad}, 1); err == nil {
		t.Error("RunMany accepted a SyncWindow without shards")
	}
}

func mustPolicy(t *testing.T, name string) core.SelectionPolicy {
	t.Helper()
	p, err := PolicyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
