package capture

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"time"
)

// stableByStart returns a copy of recs stable-sorted by start, the
// order ScanByStart must give.
func stableByStart(recs []FlowRecord) []FlowRecord {
	out := slices.Clone(recs)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TestByStartReversed runs the reorder's worst case: a trace in
// descending start order, in tied pairs, whose lag spans the whole
// trace, so every record waits in the heap until the stream ends. The
// heap takes O(n log n) for it; a sorted insertion buffer takes O(n²)
// and would not finish 100,000 records in reasonable time.
func TestByStartReversed(t *testing.T) {
	const n = 100_000
	recs := make([]FlowRecord, n)
	for i := range recs {
		recs[i] = FlowRecord{Start: time.Duration((n-i)/2) * time.Millisecond, Bytes: int64(i)}
	}
	var lag StartLag
	lag.addRecords(recs)
	if want := time.Duration(n/2) * time.Millisecond; lag.Lag() != want {
		t.Fatalf("lag %v, want %v", lag.Lag(), want)
	}
	got, err := Collect(MapSource{"ds": recs}.ScanByStart("ds"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, stableByStart(recs)) {
		t.Error("reversed trace: ScanByStart differs from the stable sort")
	}
}

// TestStartLag pins the lag on hand-made runs: in order it is 0,
// otherwise the largest drop below the latest start so far, and a drop
// past the int64 range saturates.
func TestStartLag(t *testing.T) {
	for _, c := range []struct {
		name string
		runs [][2]time.Duration
		want time.Duration
	}{
		{"empty", nil, 0},
		{"sorted, with ties", [][2]time.Duration{{1, 1}, {1, 1}, {2, 5}, {5, 9}}, 0},
		{"one record behind", [][2]time.Duration{{10, 10}, {4, 4}, {12, 12}}, 6},
		{"against the latest, not the last", [][2]time.Duration{{10, 10}, {8, 8}, {3, 3}}, 7},
		{"overlapping segments", [][2]time.Duration{{0, 100}, {90, 200}, {150, 300}}, 50},
		{"saturated", [][2]time.Duration{{math.MaxInt64, math.MaxInt64}, {math.MinInt64, 0}}, math.MaxInt64},
	} {
		var lag StartLag
		for _, r := range c.runs {
			lag.Add(r[0], r[1])
		}
		if lag.Lag() != c.want {
			t.Errorf("%s: lag %v, want %v", c.name, lag.Lag(), c.want)
		}
	}
}

// TestByStartLagZeroIsTheStream pins that a source in start order is
// scanned without a reorder: ByStart at lag 0 returns its input.
func TestByStartLagZeroIsTheStream(t *testing.T) {
	it := IterSlice([]FlowRecord{{Start: 1}, {Start: 2}})
	if got := ByStart(it, 0); got != it {
		t.Errorf("ByStart at lag 0 wrapped the stream in a %T", got)
	}
}

// failAfter yields n records of recs, then fails.
type failAfter struct {
	recs []FlowRecord
	n    int
}

var errFailAfter = errors.New("source failed")

func (f *failAfter) Next() (FlowRecord, bool) {
	if f.n == 0 {
		return FlowRecord{}, false
	}
	f.n--
	r := f.recs[0]
	f.recs = f.recs[1:]
	return r, true
}

func (f *failAfter) Err() error {
	if f.n == 0 {
		return errFailAfter
	}
	return nil
}

// TestByStartStopsAtSourceError checks that a failed source ends the
// scan: the records still waiting in the heap are dropped, not
// yielded, and Err reports the source's error.
func TestByStartStopsAtSourceError(t *testing.T) {
	recs := []FlowRecord{{Start: 5}, {Start: 4}, {Start: 3}, {Start: 9}}
	got, err := Collect(ByStart(&failAfter{recs: recs, n: 3}, time.Hour))
	if !errors.Is(err, errFailAfter) {
		t.Errorf("Err = %v, want %v", err, errFailAfter)
	}
	if len(got) != 0 {
		t.Errorf("yielded %v after the source failed", got)
	}
}
