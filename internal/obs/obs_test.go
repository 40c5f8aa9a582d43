package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestBucketUpper pins the reported upper bound of every interesting
// bucket: 0 for the non-positive bucket, 2^i-1 elsewhere, saturating at
// MaxInt64 from bucket 64 up.
func TestBucketUpper(t *testing.T) {
	cases := []struct {
		bucket int
		want   int64
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 7},
		{10, 1023},
		{32, (1 << 32) - 1},
		{63, (1 << 63) - 1},
		{64, math.MaxInt64},
		{65, math.MaxInt64},
	}
	for _, c := range cases {
		if got := BucketUpper(c.bucket); got != c.want {
			t.Errorf("BucketUpper(%d) = %d, want %d", c.bucket, got, c.want)
		}
	}
}

// TestHistogramExactAtBoundaries pins the quantile contract at the
// bucket edges: an observation of exactly 2^k-1 is the upper bound of
// its own bucket, so the reported quantile is exact (no overestimate);
// an observation of 2^k opens the next bucket and is overestimated by
// its upper bound 2^(k+1)-1.
func TestHistogramExactAtBoundaries(t *testing.T) {
	for k := 1; k <= 62; k++ {
		edge := int64(1)<<k - 1
		h := NewHistogram()
		h.Observe(edge)
		if got := h.Quantile(1); got != edge {
			t.Fatalf("k=%d: Quantile(1) after Observe(2^%d-1=%d) = %d, want exact %d", k, k, edge, got, edge)
		}

		power := int64(1) << k
		h = NewHistogram()
		h.Observe(power)
		want := int64(1)<<(k+1) - 1
		if got := h.Quantile(1); got != want {
			t.Fatalf("k=%d: Quantile(1) after Observe(2^%d=%d) = %d, want bucket upper %d", k, k, power, got, want)
		}
	}
}

// TestHistogramQuantileRanks walks the rank arithmetic on a tiny known
// multiset. Observations 1,2,3,4 land in buckets 1 (just {1}), 2
// ({2,3}) and 3 ({4}), so:
//
//	rank 1 (q<=0.25) -> bucket 1, upper 1
//	rank 2..3        -> bucket 2, upper 3
//	rank 4 (q=1)     -> bucket 3, upper 7
func TestHistogramQuantileRanks(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 2, 3, 4} {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1},
		{0.25, 1},
		{0.26, 3},
		{0.5, 3},
		{0.75, 3},
		{0.76, 7},
		{0.99, 7},
		{1, 7},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	// Out-of-range q clamps rather than panics.
	if got := h.Quantile(-1); got != 1 {
		t.Errorf("Quantile(-1) = %d, want 1 (clamped to q=0)", got)
	}
	if got := h.Quantile(2); got != 7 {
		t.Errorf("Quantile(2) = %d, want 7 (clamped to q=1)", got)
	}
}

// TestHistogramNonPositive: zero and negative observations share bucket
// 0 (reported upper bound 0) but still feed count, sum, min and max.
func TestHistogramNonPositive(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)
	if got := h.Quantile(1); got != 0 {
		t.Errorf("Quantile(1) = %d, want 0 for non-positive observations", got)
	}
	s := h.SnapshotValues()
	if s.Count != 2 || s.Sum != -5 || s.Min != -5 || s.Max != 0 {
		t.Errorf("snapshot = %+v, want count=2 sum=-5 min=-5 max=0", s)
	}
}

// TestHistogramEmpty: an untouched histogram reports zeros, including
// min/max (the sentinel seeds must not leak into snapshots).
func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d, want 0", got)
	}
	s := h.SnapshotValues()
	if s != (HistogramSnapshot{}) {
		t.Errorf("empty snapshot = %+v, want all zeros", s)
	}
}

func TestHistogramMinMaxSum(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{100, 3, 512, 7} {
		h.Observe(v)
	}
	s := h.SnapshotValues()
	if s.Count != 4 || s.Sum != 622 || s.Min != 3 || s.Max != 512 {
		t.Errorf("snapshot = %+v, want count=4 sum=622 min=3 max=512", s)
	}
	// p50: rank 2 of {3,7,100,512} -> 7, bucket 3, upper 7 (exact).
	if s.P50 != 7 {
		t.Errorf("P50 = %d, want 7", s.P50)
	}
	// p99: rank 4 -> 512, bucket 10, upper 1023.
	if s.P99 != 1023 {
		t.Errorf("P99 = %d, want 1023", s.P99)
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	// A gauge is a function over state its owner keeps, evaluated at
	// every snapshot; registering the name again keeps the latest one.
	r := NewRegistry()
	v := 10.0
	r.GaugeFunc("g", func() float64 { return v })
	v -= 3
	if got := r.Snapshot().Gauges["g"]; got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
	r.GaugeFunc("g", func() float64 { return 1 })
	if got := r.Snapshot().Gauges["g"]; got != 1 {
		t.Errorf("re-registered gauge = %v, want 1", got)
	}
}

// TestRegistryGetOrCreate pins the aggregation mechanism: looking a
// name up twice returns the same instrument, which is how studies
// recording under one name produce totals across them.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter(\"a\") returned distinct instruments")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Error("Histogram(\"c\") returned distinct instruments")
	}
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count")
	r.GaugeFunc("a.gauge", func() float64 { return 2 })
	r.GaugeFunc("m.func", func() float64 { return 1 })
	r.Histogram("k.hist")
	got := r.Names()
	want := []string{"a.gauge", "k.hist", "m.func", "z.count"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

// TestSnapshotDeterministic: two snapshots of the same instrument state
// marshal byte-identically (fixed field order, sorted map keys), and
// the result passes the shared validator.
func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.cdn.sessions").Add(7)
	r.GaugeFunc("sim.selector.flows_active", func() float64 { return 3 })
	r.GaugeFunc("wall.process.goroutines", func() float64 { return 5 })
	r.Histogram("sim.cdn.chain_depth_hops").Observe(2)

	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("identical state marshalled differently:\n%s\n%s", a, b)
	}
	if err := ValidateSnapshotJSON(a); err != nil {
		t.Errorf("snapshot failed its own validator: %v", err)
	}
}

func TestValidateSnapshotJSON(t *testing.T) {
	cases := []struct {
		name string
		data string
		ok   bool
	}{
		{"valid", `{"schema":"ytcdn.metrics/v1","counters":{},"gauges":{},"histograms":{}}`, true},
		{"wrong schema", `{"schema":"ytcdn.metrics/v0","counters":{},"gauges":{},"histograms":{}}`, false},
		{"missing section", `{"schema":"ytcdn.metrics/v1","counters":{},"gauges":{}}`, false},
		{"not json", `nope`, false},
	}
	for _, c := range cases {
		err := ValidateSnapshotJSON([]byte(c.data))
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validated but should not", c.name)
		}
	}
}

// TestConcurrentObserveAndSnapshot hammers one histogram and counter
// from many goroutines while snapshotting — the -race exercise for the
// scrape-during-run path.
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer.count")
			h := r.Histogram("hammer.hist")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i%1024 + 1))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := r.Snapshot()
			if _, err := json.Marshal(s); err != nil {
				t.Errorf("snapshot %d failed to marshal: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("hammer.count").Value(); got != workers*perWorker {
		t.Errorf("final count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("hammer.hist").Count(); got != workers*perWorker {
		t.Errorf("final histogram count = %d, want %d", got, workers*perWorker)
	}
}
