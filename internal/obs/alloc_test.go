//go:build !race

package obs

import "testing"

// TestInstrumentAllocs is the deterministic plane's allocation
// contract: the simulation core records into counters and histograms
// on every event, so recording allocates nothing. A histogram's
// buckets are a fixed array (bucketOf only indexes it) and its min and
// max trackers are CAS loops on atomics.
func TestInstrumentAllocs(t *testing.T) {
	var c Counter
	h := NewHistogram()
	v := int64(-3)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Histogram.Observe", func() {
			h.Observe(v)
			v = v*5 + 1 // cycles through buckets and new extremes
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.run); allocs != 0 {
			t.Errorf("%s allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}
