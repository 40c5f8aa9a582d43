package ytcdn

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// This file is the sub-VP sharding property suite: determinism and
// metamorphic tests pinning every sharding configuration — shard count
// × granularity (whole vantage points vs per-subnet buckets) × sync
// window — to the sequential single-engine ground truth. Window 0 must
// be bit-identical (tables, traces, SelectionMetrics, session counts);
// positive windows must stay within the documented load-staleness
// tolerance. CI runs the suite under -race.

// shardConfigs enumerates the (shards, granularity) grid of the
// acceptance criteria. Shard counts above the unit count are exercised
// too (16 subnets, 5 VPs): they clamp, which must also be exact.
func shardConfigs() []struct {
	shards int
	by     ShardBy
} {
	var out []struct {
		shards int
		by     ShardBy
	}
	for _, by := range []ShardBy{ShardByVP, ShardBySubnet} {
		for _, shards := range []int{1, 2, 5} {
			out = append(out, struct {
				shards int
				by     ShardBy
			}{shards, by})
		}
	}
	return out
}

// assertStudiesIdentical requires two studies to agree bit-for-bit on
// everything the analysis side can observe: ground-truth selection
// metrics, session counts, flow totals and the per-dataset traces
// record by record.
func assertStudiesIdentical(t *testing.T, label string, got, want *Study) {
	t.Helper()
	if got.Selection != want.Selection {
		t.Errorf("%s: SelectionMetrics = %+v, want %+v", label, got.Selection, want.Selection)
	}
	if got.Sessions != want.Sessions {
		t.Errorf("%s: sessions = %d, want %d", label, got.Sessions, want.Sessions)
	}
	if got.TotalFlows() != want.TotalFlows() {
		t.Errorf("%s: flows = %d, want %d", label, got.TotalFlows(), want.TotalFlows())
	}
	for _, name := range DatasetNames() {
		a, b := got.Trace(name), want.Trace(name)
		if len(a) != len(b) {
			t.Errorf("%s: %s has %d records, want %d", label, name, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: %s record %d differs: %+v vs %+v", label, name, i, a[i], b[i])
				break
			}
		}
	}
}

// TestSubVPWindowZeroParity is the headline determinism gate: for every
// (shards, granularity) combination of the grid, a window-0 run must be
// bit-identical to the sequential single-engine run — rendered tables,
// per-dataset traces, SelectionMetrics and session counts. Together
// with TestPolicyParity (sequential against the pinned golden) this
// proves the whole grid reproduces one canonical simulation.
func TestSubVPWindowZeroParity(t *testing.T) {
	base := Options{Scale: 0.05, Span: 7 * 24 * time.Hour}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wantRender := parityRender(t, base)

	for _, cfg := range shardConfigs() {
		if cfg.shards == 1 && cfg.by == ShardByVP {
			continue // that is the reference itself
		}
		label := fmt.Sprintf("shards=%d by=%s window=0", cfg.shards, cfg.by)
		opts := base
		opts.SimShards = cfg.shards
		opts.ShardBy = cfg.by
		s, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		assertStudiesIdentical(t, label, s, ref)
		if got := parityRender(t, opts); got != wantRender {
			t.Errorf("%s: rendered tables diverged from the sequential engine\n--- got ---\n%s\n--- want ---\n%s",
				label, got, wantRender)
		}
	}
}

// TestSubVPShardClamp pins the clamping rule: requesting more shards
// than shardable units must clamp (16 subnets, 5 VPs) and stay exact.
func TestSubVPShardClamp(t *testing.T) {
	base := Options{Scale: 0.01, Span: 2 * 24 * time.Hour, Seed: 11}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		shards int
		by     ShardBy
		want   int
	}{
		{shards: 99, by: ShardByVP, want: 5},
		{shards: 99, by: ShardBySubnet, want: 16},
		{shards: 16, by: ShardBySubnet, want: 16},
	} {
		opts := base
		opts.SimShards = cfg.shards
		opts.ShardBy = cfg.by
		s, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.SimShards != cfg.want {
			t.Errorf("shards=%d by=%s: effective shards = %d, want %d", cfg.shards, cfg.by, s.SimShards, cfg.want)
		}
		assertStudiesIdentical(t, fmt.Sprintf("clamped shards=%d by=%s", cfg.shards, cfg.by), s, ref)
	}
}

// TestSubVPShardByValidation rejects unknown granularities.
func TestSubVPShardByValidation(t *testing.T) {
	_, err := Run(Options{Scale: 0.001, Span: time.Hour, ShardBy: "bogus"})
	if err == nil {
		t.Fatal("Run accepted ShardBy \"bogus\"")
	}
}

// TestShardingMetamorphic is the metamorphic suite: random study
// configurations (seed, scale, span, policy, mid-run switch) must obey
// the sharding invariance — every window-0 sharding produces the exact
// sequential result, and a windowed sub-VP run keeps arrivals exact
// with aggregates inside tolerance. The configurations themselves come
// from a deterministically seeded generator, so a failure reproduces.
func TestShardingMetamorphic(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic suite runs several studies; skipped in -short")
	}
	meta := stats.NewRNG(20110214) // the paper's Feb-2011 follow-up
	policies := PolicyNames()
	const rounds = 4
	for round := 0; round < rounds; round++ {
		base := Options{
			Seed:  meta.Int63(),
			Scale: 0.004 + 0.008*meta.Float64(),
			Span:  time.Duration(36+meta.Intn(36)) * time.Hour,
		}
		name := policies[meta.Intn(len(policies))]
		if name != "paper" {
			p, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			base.Policy = p
		}
		if meta.Bool(0.3) {
			to, err := PolicyByName(policies[meta.Intn(len(policies))])
			if err != nil {
				t.Fatal(err)
			}
			base.PolicySwitch = &PolicySwitch{At: base.Span / 2, To: to}
			base.Policy = nil // ComparePolicies-style: switch from the default
		}
		label := fmt.Sprintf("round %d (seed=%d scale=%.4f span=%v policy=%s switch=%v)",
			round, base.Seed, base.Scale, base.Span, name, base.PolicySwitch != nil)

		ref, err := Run(base)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		// Exactness: a random point of the sharding grid at window 0.
		exact := base
		exact.SimShards = 2 + meta.Intn(10)
		exact.ShardBy = []ShardBy{ShardByVP, ShardBySubnet}[meta.Intn(2)]
		s, err := Run(exact)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertStudiesIdentical(t, fmt.Sprintf("%s shards=%d by=%s", label, exact.SimShards, exact.ShardBy), s, ref)

		// Tolerance: a windowed sub-VP run of the same study.
		windowed := base
		windowed.SimShards = 5
		windowed.ShardBy = ShardBySubnet
		windowed.SyncWindow = time.Duration(30+meta.Intn(90)) * time.Second
		win, err := Run(windowed)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertWindowedTolerance(t, label, win, ref)
	}
}

// assertWindowedTolerance checks the documented windowed-mode contract:
// session arrivals are exact (they come from the per-subnet workload
// streams, untouched by load), while chain counts and flow totals stay
// within a small tolerance of sequential.
func assertWindowedTolerance(t *testing.T, label string, win, ref *Study) {
	t.Helper()
	if win.Sessions != ref.Sessions {
		t.Errorf("%s: windowed sessions = %d, want exactly %d", label, win.Sessions, ref.Sessions)
	}
	const tol = 0.02
	if d := relDelta(float64(win.Selection.Chains), float64(ref.Selection.Chains)); d > tol {
		t.Errorf("%s: windowed chains %d vs sequential %d (%.1f%% apart)",
			label, win.Selection.Chains, ref.Selection.Chains, d*100)
	}
	if d := relDelta(float64(win.TotalFlows()), float64(ref.TotalFlows())); d > tol {
		t.Errorf("%s: windowed flows %d vs sequential %d (%.1f%% apart)",
			label, win.TotalFlows(), ref.TotalFlows(), d*100)
	}
	if d := math.Abs(win.Selection.PreferredFrac() - ref.Selection.PreferredFrac()); d > 0.05 {
		t.Errorf("%s: windowed preferred frac %.3f vs sequential %.3f",
			label, win.Selection.PreferredFrac(), ref.Selection.PreferredFrac())
	}
}

// TestSubVPWindowedTolerance is the fixed-config windowed exercise for
// sub-VP sharding, mirroring TestShardedWindowedTolerance (which covers
// per-VP sharding): 5 subnet-shards in one-minute lockstep windows keep
// arrivals exact and Table I within tolerance. Under -race this is the
// concurrency exercise for several bucket simulators of one vantage
// point sharing a capture sink.
func TestSubVPWindowedTolerance(t *testing.T) {
	base := Options{Scale: 0.05, Span: 7 * 24 * time.Hour}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.SimShards = 5
	opts.ShardBy = ShardBySubnet
	opts.SyncWindow = time.Minute
	win, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	assertWindowedTolerance(t, "subvp windowed", win, seq)

	tabSeq := tableIByDataset(t, seq)
	tabWin := tableIByDataset(t, win)
	const tol = 0.02
	for name, sr := range tabSeq {
		wr := tabWin[name]
		if relDelta(float64(wr.Flows), float64(sr.Flows)) > tol {
			t.Errorf("%s flows: windowed %d vs sequential %d (> %.0f%% apart)", name, wr.Flows, sr.Flows, tol*100)
		}
		if relDelta(wr.GB, sr.GB) > tol {
			t.Errorf("%s volume: windowed %.2f GB vs sequential %.2f GB (> %.0f%% apart)", name, wr.GB, sr.GB, tol*100)
		}
	}
}

// TestShardMatrixCell is the CI shard-matrix entry point: when
// YTCDN_MATRIX_SHARDS / YTCDN_MATRIX_WINDOW are set, it runs exactly
// that cell of the grid at both granularities against the sequential
// reference — exact at window 0, within tolerance otherwise. Without
// the env vars it skips (the fixed tests above cover the defaults).
func TestShardMatrixCell(t *testing.T) {
	shardsEnv := os.Getenv("YTCDN_MATRIX_SHARDS")
	if shardsEnv == "" {
		t.Skip("set YTCDN_MATRIX_SHARDS (and optionally YTCDN_MATRIX_WINDOW) to run one matrix cell")
	}
	shards, err := strconv.Atoi(shardsEnv)
	if err != nil {
		t.Fatalf("YTCDN_MATRIX_SHARDS: %v", err)
	}
	window := time.Duration(0)
	if w := os.Getenv("YTCDN_MATRIX_WINDOW"); w != "" {
		window, err = time.ParseDuration(w)
		if err != nil {
			t.Fatalf("YTCDN_MATRIX_WINDOW: %v", err)
		}
	}
	base := Options{Scale: 0.03, Span: 4 * 24 * time.Hour}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, by := range []ShardBy{ShardByVP, ShardBySubnet} {
		opts := base
		opts.SimShards = shards
		opts.ShardBy = by
		opts.SyncWindow = window
		label := fmt.Sprintf("matrix shards=%d by=%s window=%v", shards, by, window)
		if shards <= 1 && window > 0 {
			// This cell is the silent misconfiguration Run now rejects:
			// a window cannot apply to a single engine.
			if _, err := Run(opts); err == nil {
				t.Errorf("%s: want a SyncWindow-without-shards error, got nil", label)
			}
			continue
		}
		s, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if window == 0 || shards <= 1 {
			assertStudiesIdentical(t, label, s, ref)
		} else {
			assertWindowedTolerance(t, label, s, ref)
		}
	}
}
