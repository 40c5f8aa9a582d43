package analysis

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/asdb"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// testRegistry builds a small AS registry for streaming tests.
func testRegistry(t *testing.T) *asdb.Registry {
	t.Helper()
	reg := asdb.NewRegistry()
	reg.Register(ipnet.MustParsePrefix("1.0.0.0/8"), asdb.AS{Number: asdb.ASGoogle, Name: "Google"})
	reg.Register(ipnet.MustParsePrefix("3.0.0.0/8"), asdb.AS{Number: 7018, Name: "ISP"})
	return reg
}

// randomTrace builds a deterministic pseudo-random trace with enough
// key collisions to exercise session grouping.
func randomTrace(seed int64, n int) []capture.FlowRecord {
	g := rand.New(rand.NewSource(seed))
	out := make([]capture.FlowRecord, n)
	for i := range out {
		start := time.Duration(g.Intn(100_000)) * time.Millisecond
		out[i] = capture.FlowRecord{
			Client:     ipnet.Addr(0x0A000000 + uint32(g.Intn(20))),
			Server:     ipnet.Addr(0xADC20000 + uint32(g.Intn(10))),
			Start:      start,
			End:        start + time.Duration(1+g.Intn(8000))*time.Millisecond,
			Bytes:      int64(g.Intn(2_000_000)),
			VideoID:    fmt.Sprintf("v%d", g.Intn(15)),
			Resolution: "360p",
		}
	}
	return out
}

// TestSummarizeIterMatchesSlice pins the delegation: the streaming and
// slice paths are one implementation.
func TestSummarizeIterMatchesSlice(t *testing.T) {
	recs := randomTrace(1, 500)
	want := Summarize(recs)
	got, err := SummarizeIter(capture.IterSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("SummarizeIter = %+v, want %+v", got, want)
	}
}

// failingIter yields a few records then fails, to check error
// propagation through the streaming aggregations.
type failingIter struct {
	recs []capture.FlowRecord
	i    int
}

var errStream = errors.New("stream broke")

func (f *failingIter) Next() (capture.FlowRecord, bool) {
	if f.i >= len(f.recs) {
		return capture.FlowRecord{}, false
	}
	r := f.recs[f.i]
	f.i++
	return r, true
}

func (f *failingIter) Err() error { return errStream }

func TestStreamingAggregationsPropagateErrors(t *testing.T) {
	recs := randomTrace(2, 10)
	if _, err := SummarizeIter(&failingIter{recs: recs}); !errors.Is(err, errStream) {
		t.Errorf("SummarizeIter err = %v", err)
	}
	if _, err := GoogleFilterIter(&failingIter{recs: recs}, testRegistry(t), 7018); !errors.Is(err, errStream) {
		t.Errorf("GoogleFilterIter err = %v", err)
	}
	if _, err := SessionizeIter(&failingIter{recs: recs}, time.Second); !errors.Is(err, errStream) {
		t.Errorf("SessionizeIter err = %v", err)
	}
	if err := StreamSessions(sortedIter(recs), time.Second, func(Session) {}); err != nil {
		t.Errorf("StreamSessions over clean input: %v", err)
	}
}

// sortedIter yields recs in start order (StreamSessions' precondition).
func sortedIter(recs []capture.FlowRecord) capture.Iterator {
	sorted := make([]capture.FlowRecord, len(recs))
	copy(sorted, recs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	return capture.IterSlice(sorted)
}

// canonicalize sorts sessions (and nothing inside them) the way
// Sessionize orders its result, so partitions can be compared.
func canonicalize(sessions []Session) []Session {
	out := make([]Session, len(sessions))
	copy(out, sessions)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start() != out[j].Start() {
			return out[i].Start() < out[j].Start()
		}
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].VideoID < out[j].VideoID
	})
	return out
}

// TestStreamSessionsMatchesSessionize feeds the same trace through the
// batch sessionizer and the bounded-memory streaming one and requires
// the identical session partition.
func TestStreamSessionsMatchesSessionize(t *testing.T) {
	for _, gap := range []time.Duration{time.Second, 5 * time.Second, time.Minute} {
		recs := randomTrace(3, 2000)
		want := Sessionize(recs, gap)

		var got []Session
		if err := StreamSessions(sortedIter(recs), gap, func(s Session) { got = append(got, s) }); err != nil {
			t.Fatal(err)
		}
		got = canonicalize(got)
		if len(got) != len(want) {
			t.Fatalf("gap %v: %d sessions streamed, want %d", gap, len(got), len(want))
		}
		for i := range want {
			if got[i].Client != want[i].Client || got[i].VideoID != want[i].VideoID ||
				len(got[i].Flows) != len(want[i].Flows) {
				t.Fatalf("gap %v session %d: got (%v,%s,%d flows) want (%v,%s,%d flows)",
					gap, i, got[i].Client, got[i].VideoID, len(got[i].Flows),
					want[i].Client, want[i].VideoID, len(want[i].Flows))
			}
			for j := range want[i].Flows {
				if got[i].Flows[j] != want[i].Flows[j] {
					t.Fatalf("gap %v session %d flow %d differs", gap, i, j)
				}
			}
		}
	}
}

func TestStreamSessionsRejectsUnsortedInput(t *testing.T) {
	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.1.1", 10*time.Second, 11*time.Second, 5000, "v1"),
		rec("10.0.0.1", "1.1.1.1", 2*time.Second, 3*time.Second, 5000, "v1"),
	}
	err := StreamSessions(capture.IterSlice(recs), time.Second, func(Session) {})
	if err == nil {
		t.Fatal("unsorted input must be rejected")
	}
}

// TestStreamSessionsBoundedOpenSet checks the memory property: with
// short sessions spread over a long window, the open set never holds
// more than the sessions one sweep interval creates plus the one still
// live at the cursor, though the trace has ten times as many sessions.
func TestStreamSessionsBoundedOpenSet(t *testing.T) {
	const n = 10 * sweepEvery
	var recs []capture.FlowRecord
	for i := 0; i < n; i++ {
		start := time.Duration(i) * 10 * time.Second
		recs = append(recs, capture.FlowRecord{
			Client:  ipnet.Addr(0x0A000000 + uint32(i%7)),
			Start:   start,
			End:     start + time.Second,
			Bytes:   5000,
			VideoID: fmt.Sprintf("v%d", i),
		})
	}
	emitted := 0
	z := newSessionizer(time.Second, func(Session) { emitted++ })
	if err := z.run(capture.IterSlice(recs)); err != nil {
		t.Fatal(err)
	}
	if emitted != n {
		t.Fatalf("emitted %d sessions, want %d", emitted, n)
	}
	if z.peakOpen > sweepEvery+1 {
		t.Fatalf("peak open sessions %d, want <= %d", z.peakOpen, sweepEvery+1)
	}
}

func TestGoogleFilterIterMatchesSlice(t *testing.T) {
	reg := testRegistry(t)
	recs := []capture.FlowRecord{
		rec("10.0.0.1", "1.1.0.1", 0, time.Second, 5000, "v1"), // Google: keep
		rec("10.0.0.1", "8.8.8.8", 0, time.Second, 5000, "v2"), // unrouted: drop
		rec("10.0.0.1", "3.2.0.1", 0, time.Second, 5000, "v3"), // same AS: keep
	}
	want := GoogleFilter(recs, reg, 7018)
	got, err := GoogleFilterIter(capture.IterSlice(recs), reg, 7018)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got) != len(want) {
		t.Fatalf("filter: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d differs", i)
		}
	}
}
