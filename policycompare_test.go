package ytcdn

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/core"
)

// cmpOpts is a fast comparison base: two simulated days at 1% volume.
func cmpOpts() Options {
	return Options{Scale: 0.01, Span: 2 * 24 * time.Hour, Seed: 7, Parallelism: 4}
}

// TestComparePoliciesReproducible is the acceptance gate for the
// comparison harness: all four built-ins run concurrently, and the
// table is bit-reproducible across invocations (seed-stable,
// independent of worker scheduling).
func TestComparePoliciesReproducible(t *testing.T) {
	first, err := ComparePolicies(cmpOpts())
	if err != nil {
		t.Fatal(err)
	}
	second, err := ComparePolicies(cmpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("comparison not reproducible:\n%s\nvs\n%s", first.Render(), second.Render())
	}

	if got := len(first.Rows); got != 4 {
		t.Fatalf("%d rows, want 4 built-ins", got)
	}
	byName := map[string]int{}
	for i, row := range first.Rows {
		byName[row.Policy] = i
		if row.Chains == 0 || row.Flows == 0 {
			t.Errorf("%s: empty study (chains=%d flows=%d)", row.Policy, row.Chains, row.Flows)
		}
	}
	for i, want := range PolicyNames() {
		if first.Rows[i].Policy != want {
			t.Fatalf("row %d is %q, want builtin order %v", i, first.Rows[i].Policy, PolicyNames())
		}
	}

	// Distinguishing ground truth per policy.
	prox := first.Rows[byName["proximity"]]
	if prox.Spills != 0 || prox.Hotspots != 0 || prox.RaceWins != 0 {
		t.Errorf("proximity must never spill/shed/race: %+v", prox)
	}
	race := first.Rows[byName["client-race"]]
	if race.RaceWins != race.Chains {
		t.Errorf("client-race resolved %d of %d chains by racing", race.RaceWins, race.Chains)
	}
	paper := first.Rows[byName["paper"]]
	if paper.RaceWins != 0 {
		t.Errorf("paper policy raced %d chains", paper.RaceWins)
	}
	least := first.Rows[byName["least-loaded"]]
	if least.PreferredFrac >= paper.PreferredFrac {
		t.Errorf("least-loaded preferred fraction %.3f not below paper %.3f",
			least.PreferredFrac, paper.PreferredFrac)
	}
	if prox.PreferredFrac <= paper.PreferredFrac {
		t.Errorf("proximity preferred fraction %.3f not above paper %.3f",
			prox.PreferredFrac, paper.PreferredFrac)
	}
}

// TestComparePoliciesMatchesRun pins each comparison row to an
// individual Run with the same options: the harness adds nothing and
// loses nothing.
func TestComparePoliciesMatchesRun(t *testing.T) {
	base := cmpOpts()
	cmp, err := ComparePolicies(base, NamedPolicy{Name: "least-loaded", Policy: &core.LeastLoadedDC{}})
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.Policy = &core.LeastLoadedDC{}
	study, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	row := cmp.Rows[0]
	spills, hotspots, misses := study.Selector.Counters()
	if row.Flows != study.TotalFlows() || row.Chains != study.Selection.Chains ||
		row.Spills != spills || row.Hotspots != hotspots || row.Misses != misses {
		t.Errorf("comparison row %+v does not match direct run (flows=%d chains=%d s/h/m=%d/%d/%d)",
			row, study.TotalFlows(), study.Selection.Chains, spills, hotspots, misses)
	}
}

func TestComparePoliciesValidation(t *testing.T) {
	base := cmpOpts()
	base.Policy = core.ProximityOnly{}
	if _, err := ComparePolicies(base); err == nil {
		t.Error("base with Policy set must be rejected")
	}
	base = cmpOpts()
	base.PolicySwitch = &PolicySwitch{At: time.Hour, To: core.ProximityOnly{}}
	if _, err := ComparePolicies(base); err == nil {
		t.Error("base with PolicySwitch set must be rejected")
	}
	if _, err := ComparePolicies(cmpOpts(), NamedPolicy{Name: "", Policy: core.ProximityOnly{}}); err == nil {
		t.Error("unnamed policy must be rejected")
	}
	if _, err := ComparePolicies(cmpOpts(), NamedPolicy{Name: "x", Policy: nil}); err == nil {
		t.Error("nil policy must be rejected")
	}
	dup := NamedPolicy{Name: "x", Policy: core.ProximityOnly{}}
	if _, err := ComparePolicies(cmpOpts(), dup, dup); err == nil {
		t.Error("duplicate names must be rejected")
	}
}

// TestComparePoliciesStoreSubdirs checks disk-backed comparisons keep
// one store per policy.
func TestComparePoliciesStoreSubdirs(t *testing.T) {
	base := Options{Scale: 0.002, Span: 24 * time.Hour, Seed: 7, Parallelism: 2}
	base.Store = &StoreOptions{Dir: t.TempDir(), SegmentRecords: 256}
	cmp, err := ComparePolicies(base,
		NamedPolicy{Name: "paper", Policy: core.DefaultPaperPolicy()},
		NamedPolicy{Name: "proximity", Policy: core.ProximityOnly{}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range cmp.Rows {
		entries, err := os.ReadDir(filepath.Join(base.Store.Dir, row.Policy))
		if err != nil || len(entries) == 0 {
			t.Errorf("policy %s: missing per-policy store (%v)", row.Policy, err)
		}
	}
}

// TestPolicyByName covers the flag-facing lookup.
func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown name must error")
	}
}

// TestPolicySwitchMidRun models the paper's observed assignment-policy
// change: a run that starts proximity-only and switches to the
// least-loaded policy halfway shows spills only the switched half can
// produce, while a switch at the very end leaves the run spill-free.
func TestPolicySwitchMidRun(t *testing.T) {
	base := Options{Scale: 0.01, Span: 2 * 24 * time.Hour, Seed: 7}
	base.Policy = core.ProximityOnly{}

	pure, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if spills, _, _ := pure.Selector.Counters(); spills != 0 {
		t.Fatalf("pure proximity run spilled %d times", spills)
	}

	switched := base
	switched.PolicySwitch = &PolicySwitch{At: base.Span / 2, To: &core.LeastLoadedDC{}}
	study, err := Run(switched)
	if err != nil {
		t.Fatal(err)
	}
	if got := study.Selector.Policy().Name(); got != "least-loaded" {
		t.Errorf("post-run active policy = %q, want least-loaded", got)
	}
	spills, _, _ := study.Selector.Counters()
	if spills == 0 {
		t.Error("switched run produced no spills; the policy change had no effect")
	}
	if study.Selection.Chains == 0 {
		t.Error("no chains executed")
	}

	// A switch at the end of the span can never affect a decision —
	// it is a silent misconfiguration, and Run rejects it.
	lateSwitch := base
	lateSwitch.PolicySwitch = &PolicySwitch{At: base.Span, To: &core.LeastLoadedDC{}}
	if _, err := Run(lateSwitch); err == nil {
		t.Error("PolicySwitch.At == Span must be rejected")
	}
}

// TestPolicySwitchValidation covers the timeline's error paths.
func TestPolicySwitchValidation(t *testing.T) {
	base := Options{Scale: 0.002, Span: 24 * time.Hour}
	for _, sw := range []*PolicySwitch{
		{At: time.Hour, To: nil},
		{At: -time.Hour, To: core.ProximityOnly{}},
		{At: 24 * time.Hour, To: core.ProximityOnly{}},
		{At: 48 * time.Hour, To: core.ProximityOnly{}},
		{At: time.Hour, To: &core.ClientRace{K: -1}},
	} {
		opts := base
		opts.PolicySwitch = sw
		if _, err := Run(opts); err == nil {
			t.Errorf("PolicySwitch %+v must be rejected", sw)
		}
	}
}
