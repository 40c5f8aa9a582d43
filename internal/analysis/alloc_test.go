//go:build !race

package analysis

import (
	"testing"
)

// TestCensusAddAllocs is the census's allocation contract: once a
// record's server and client have been seen and the kept sizes are
// presized from the record count, Census.Add allocates nothing, since
// both maps hold the key already and the size lands in spare capacity.
// A server's or client's first record allocates its map slot. The
// census is sized for exactly the records the test adds, so its sizes
// must end in the one buffer NewCensus made.
func TestCensusAddAllocs(t *testing.T) {
	recs := randomTrace(3, 1000)
	const runs = 20
	records := len(recs) * (runs + 2) // the first pass, AllocsPerRun's warm-up, the runs
	c := NewCensus(testRegistry(t), 7018, records)
	for _, r := range recs {
		c.Add(r)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		for _, r := range recs {
			c.Add(r)
		}
	})
	if allocs != 0 {
		t.Errorf("Add allocated %.0f times per %d records, want 0", allocs, len(recs))
	}
	if len(c.sizes) != records || cap(c.sizes) != records {
		t.Errorf("kept sizes: len %d cap %d, want both %d (one presized buffer)", len(c.sizes), cap(c.sizes), records)
	}
}
