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
	"github.com/ytcdn-sim/ytcdn/internal/content"
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
			VideoID:    vid(fmt.Sprintf("v%d", g.Intn(15))),
			Resolution: content.Res360p,
		}
	}
	return out
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
	if _, err := capture.Collect(GoogleIter(&failingIter{recs: recs}, testRegistry(t), 7018)); !errors.Is(err, errStream) {
		t.Errorf("GoogleIter err = %v", err)
	}
	sorted := collect(t, sortedIter(recs))
	if err := StreamSessions(&failingIter{recs: sorted}, time.Second, func(Session) {}); !errors.Is(err, errStream) {
		t.Errorf("StreamSessions err = %v", err)
	}
	if _, err := SessionTalliesIter(&failingIter{recs: sorted}, []time.Duration{time.Second}, 10); !errors.Is(err, errStream) {
		t.Errorf("SessionTalliesIter err = %v", err)
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

// Sessionize is the batch sessionizer StreamSessions replaced, kept as
// an oracle for its session partition: it groups a trace in any order
// by (client, VideoID), sorts each group by (start, end), and splits
// wherever a flow starts more than gap past the furthest end seen. The
// result is ordered by session start time, then client and VideoID.
func Sessionize(recs []capture.FlowRecord, gap time.Duration) []Session {
	groups := make(map[sessionKey][]capture.FlowRecord)
	for _, r := range recs {
		k := sessionKey{client: r.Client, video: r.VideoID}
		groups[k] = append(groups[k], r)
	}

	var out []Session
	for k, flows := range groups {
		sort.Slice(flows, func(i, j int) bool {
			if flows[i].Start != flows[j].Start {
				return flows[i].Start < flows[j].Start
			}
			return flows[i].End < flows[j].End
		})
		cur := Session{Client: k.client, VideoID: k.video}
		var latestEnd time.Duration
		for _, f := range flows {
			if len(cur.Flows) > 0 && f.Start > latestEnd+gap {
				out = append(out, cur)
				cur = Session{Client: k.client, VideoID: k.video}
				latestEnd = 0
			}
			cur.Flows = append(cur.Flows, f)
			if f.End > latestEnd {
				latestEnd = f.End
			}
		}
		out = append(out, cur)
	}
	return canonicalize(out)
}

// canonicalize sorts sessions (and nothing inside them) by start time,
// then client and VideoID, so partitions can be compared.
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
		return out[i].VideoID.String() < out[j].VideoID.String()
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
			VideoID: vid(fmt.Sprintf("v%d", i)),
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
