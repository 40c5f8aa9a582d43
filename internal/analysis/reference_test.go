package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// referenceStreamSessions is StreamSessions before its deadline queue:
// every sweep walks all open sessions, then sorts the closed ones with
// map lookups. It is the oracle the queue-based sessionizer and
// SessionTalliesIter must match, emission order included. visited
// counts the open sessions its sweeps walked.
func referenceStreamSessions(it capture.Iterator, gap time.Duration, emit func(Session)) (visited int, err error) {
	open := make(map[sessionKey]*Session)
	latest := make(map[sessionKey]time.Duration)
	var cursor time.Duration
	n := 0
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r.Start < cursor {
			return visited, fmt.Errorf("analysis: StreamSessions input not ordered by start time (%v after %v)", r.Start, cursor)
		}
		cursor = r.Start
		k := sessionKey{client: r.Client, video: r.VideoID}
		s, ok := open[k]
		if ok && r.Start > latest[k]+gap {
			emit(*s)
			delete(open, k)
			ok = false
		}
		if !ok {
			open[k] = &Session{Client: r.Client, VideoID: r.VideoID, Flows: []capture.FlowRecord{r}}
			latest[k] = r.End
		} else {
			s.Flows = append(s.Flows, r)
			if r.End > latest[k] {
				latest[k] = r.End
			}
		}
		n++
		if n%4096 == 0 {
			visited += referenceSweepClosed(open, latest, cursor, gap, emit)
		}
	}
	if err := it.Err(); err != nil {
		return visited, err
	}
	visited += referenceSweepClosed(open, latest, time.Duration(1<<63-1), 0, emit)
	return visited, nil
}

func referenceSweepClosed(open map[sessionKey]*Session, latest map[sessionKey]time.Duration, cursor, gap time.Duration, emit func(Session)) int {
	visited := len(latest)
	var closed []sessionKey
	for k, end := range latest {
		if cursor > end+gap {
			closed = append(closed, k)
		}
	}
	sort.Slice(closed, func(i, j int) bool {
		a, b := open[closed[i]], open[closed[j]]
		if a.Start() != b.Start() {
			return a.Start() < b.Start()
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.VideoID.String() < b.VideoID.String()
	})
	for _, k := range closed {
		emit(*open[k])
		delete(open, k)
		delete(latest, k)
	}
	return visited
}

// referenceGaps are the gaps the oracle checks: zero, and every scale
// Fig 5 spans.
var referenceGaps = []time.Duration{0, time.Second, 5 * time.Second, 60 * time.Second, 300 * time.Second}

// sessionTrace builds a start-ordered trace of n records over the given
// number of (client, VideoID) keys, mixing the cases sessionization
// must get exactly right: equal starts, overlapping flows, flows that
// start exactly at a key's furthest end plus one of referenceGaps, and
// flows that end before they start (a hand-made store or TSV can hold
// them). base offsets every start.
func sessionTrace(seed int64, n, keys int, base time.Duration) []capture.FlowRecord {
	g := rand.New(rand.NewSource(seed))
	furthest := make(map[int]time.Duration)
	out := make([]capture.FlowRecord, 0, n)
	cursor := base
	for len(out) < n {
		k := g.Intn(keys)
		start := cursor
		switch p := g.Intn(10); {
		case p < 5:
			start += time.Duration(g.Intn(3000)) * time.Millisecond
		case p < 8:
			if end, ok := furthest[k]; ok {
				if s := end + referenceGaps[g.Intn(len(referenceGaps))]; s >= cursor {
					start = s
				}
			}
		}
		// p >= 8 keeps start == cursor: an equal start.
		end := start + time.Duration(g.Intn(10_000))*time.Millisecond
		if g.Intn(40) == 0 {
			end = start - time.Duration(1+g.Intn(5000))*time.Millisecond
		}
		if e, ok := furthest[k]; !ok || end > e {
			furthest[k] = end
		}
		cursor = start
		out = append(out, capture.FlowRecord{
			Client:  ipnet.Addr(0x0A000000 + uint32(k%7)),
			Server:  ipnet.Addr(0xADC20000 + uint32(g.Intn(10))),
			Start:   start,
			End:     end,
			Bytes:   int64(g.Intn(2_000_000)),
			VideoID: vid(fmt.Sprintf("v%d", k/7)),
		})
	}
	return out
}

// checkAgainstReference requires StreamSessions to emit exactly the
// reference's session sequence at every gap, and SessionTalliesIter's
// one pass to equal tallying the reference's sessions gap by gap.
// Errors must match too: both reject out-of-order starts.
func checkAgainstReference(t *testing.T, recs []capture.FlowRecord) {
	t.Helper()
	wantTallies := make([]*SessionTally, len(referenceGaps))
	var wantErr error
	for i, gap := range referenceGaps {
		var want, got []Session
		wantTallies[i] = NewSessionTally(10)
		_, err := referenceStreamSessions(capture.IterSlice(recs), gap, func(s Session) {
			want = append(want, s)
			wantTallies[i].Add(s, nil, 0)
		})
		gotErr := StreamSessions(capture.IterSlice(recs), gap, func(s Session) { got = append(got, s) })
		if fmt.Sprint(gotErr) != fmt.Sprint(err) {
			t.Fatalf("gap %v: StreamSessions error %v, reference %v", gap, gotErr, err)
		}
		wantErr = err
		if len(got) != len(want) {
			t.Fatalf("gap %v: %d sessions emitted, reference %d", gap, len(got), len(want))
		}
		for j := range want {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("gap %v: session %d is (%v,%s,%d flows), reference (%v,%s,%d flows)",
					gap, j, got[j].Client, got[j].VideoID, len(got[j].Flows),
					want[j].Client, want[j].VideoID, len(want[j].Flows))
			}
		}
	}
	// Past the tally's domain (some end plus the largest gap overflows),
	// whether the reference ever emits such a session depends on where
	// its sweeps fall; StreamSessions alone reproduces that.
	maxGap := referenceGaps[len(referenceGaps)-1]
	for _, r := range recs {
		if r.End >= maxDuration-maxGap {
			return
		}
	}
	got, err := SessionTalliesIter(capture.IterSlice(recs), referenceGaps, 10)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("SessionTalliesIter error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return
	}
	for i, gap := range referenceGaps {
		if !reflect.DeepEqual(got[i], wantTallies[i]) {
			t.Errorf("gap %v: tally %+v, reference %+v", gap, *got[i], *wantTallies[i])
		}
	}
}

// TestSessionizersMatchReference runs both sessionizers against the
// reference over traces longer than three sweeps.
func TestSessionizersMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		recs := sessionTrace(seed, 13_000+int(seed)*1500, 20+int(seed)*40, 0)
		var equalStarts, endBeforeStart, atBoundary int
		furthest := make(map[sessionKey]time.Duration)
		for i, r := range recs {
			if i > 0 && r.Start == recs[i-1].Start {
				equalStarts++
			}
			if r.End < r.Start {
				endBeforeStart++
			}
			k := sessionKey{client: r.Client, video: r.VideoID}
			if end, ok := furthest[k]; ok {
				for _, gap := range referenceGaps[1:] {
					if r.Start == end+gap {
						atBoundary++
					}
				}
				if r.End > end {
					furthest[k] = r.End
				}
			} else {
				furthest[k] = r.End
			}
		}
		if equalStarts == 0 || endBeforeStart == 0 || atBoundary == 0 {
			t.Fatalf("seed %d: trace lacks an edge case (equal starts %d, End<Start %d, start at end+T %d)",
				seed, equalStarts, endBeforeStart, atBoundary)
		}
		checkAgainstReference(t, recs)
	}
}

// TestStreamSessionsMatchesReferenceAtInt64Edges covers ends near the
// largest Duration, which no simulated trace reaches but a hand-made
// store can hold. One session's deadline wraps past the largest
// Duration while the first sweep's cursor is still below its earlier
// deadline: the reference closes it at that sweep. Another ends at the
// largest Duration, which the reference's final sweep leaves unemitted
// at gap 0.
func TestStreamSessionsMatchesReferenceAtInt64Edges(t *testing.T) {
	recs := []capture.FlowRecord{
		{Client: 0x0B000001, VideoID: vid("wrap"), Start: 0, End: 10 * time.Second},
		{Client: 0x0B000001, VideoID: vid("wrap"), Start: 0, End: maxDuration - time.Second},
		{Client: 0x0B000002, VideoID: vid("max"), Start: 0, End: maxDuration},
	}
	// Fill past one sweep while the cursor stays within 10s.
	for i := 0; len(recs) < sweepEvery+500; i++ {
		start := time.Duration(i) * time.Millisecond
		recs = append(recs, capture.FlowRecord{
			Client:  ipnet.Addr(0x0A000000 + uint32(i%13)),
			Start:   start,
			End:     start + time.Duration(i%7)*time.Millisecond,
			VideoID: vid(fmt.Sprintf("v%d", i%5)),
		})
	}
	checkAgainstReference(t, recs)
}

// FuzzSessionizersMatchReference extends the oracle to fuzzer-chosen
// traces: length up to 20k records, key count, and a start offset that
// reaches the int64 edges (where a start overflows into an ordering
// error and end+T wraps around).
func FuzzSessionizersMatchReference(f *testing.F) {
	f.Add(int64(1), uint16(5000), uint8(30), int64(0))
	f.Add(int64(2), uint16(13000), uint8(200), int64(3600e9))
	f.Add(int64(3), uint16(300), uint8(3), int64(1<<63-1)-int64(20*time.Minute))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, keys uint8, base int64) {
		if base < 0 {
			base = -(base + 1)
		}
		recs := sessionTrace(seed, int(n)%20_001, int(keys)+1, time.Duration(base))
		checkAgainstReference(t, recs)
	})
}

// densityTrace gives each of keys clients one session at gap 300s:
// a 1s flow every 150s over the same 600s span, staggered so every
// key is open at once.
func densityTrace(keys int) []capture.FlowRecord {
	const rounds = 4
	period := 150 * time.Second
	out := make([]capture.FlowRecord, 0, keys*rounds)
	for j := 0; j < rounds; j++ {
		for k := 0; k < keys; k++ {
			start := time.Duration(j)*period + time.Duration(k)*period/time.Duration(keys)
			out = append(out, capture.FlowRecord{
				Client:  ipnet.Addr(0x0A000000 + uint32(k)),
				Start:   start,
				End:     start + time.Second,
				Bytes:   5000,
				VideoID: vid("v"),
			})
		}
	}
	return out
}

// TestSessionizerWorkPerRecordIsFlat makes the sessionizer's cost
// model a tier-1 property. Two traces cover the same span, one with 5×
// the concurrent keys of the other (the density step from scale 0.02
// to 0.1). The queue entries the sweeps examine must stay under a
// fixed constant per record on both: a session enters the queue when
// it opens and re-enters only after it has grown, so every entry is
// charged to a distinct record, plus one entry ending each sweep. The
// reference's full walk visits every open session at every sweep, and
// fails the bound on the dense trace.
func TestSessionizerWorkPerRecordIsFlat(t *testing.T) {
	const perRecord = 1 + 1.0/sweepEvery
	gap := 300 * time.Second
	for _, keys := range []int{3000, 15000} {
		recs := densityTrace(keys)
		z := newSessionizer(gap, func(Session) {})
		if err := z.run(capture.IterSlice(recs)); err != nil {
			t.Fatal(err)
		}
		got := float64(z.examined) / float64(len(recs))
		if got > perRecord {
			t.Errorf("%d keys: sweeps examined %.3f queue entries per record, want <= %.5f", keys, got, perRecord)
		}
		if z.peakOpen != keys {
			t.Errorf("%d keys: peak open sessions %d, want %d", keys, z.peakOpen, keys)
		}
		visited, err := referenceStreamSessions(capture.IterSlice(recs), gap, func(Session) {})
		if err != nil {
			t.Fatal(err)
		}
		ref := float64(visited) / float64(len(recs))
		t.Logf("%d keys, %d records: %.3f entries examined per record, reference walk %.3f", keys, len(recs), got, ref)
		if keys == 15000 && ref <= perRecord {
			t.Errorf("reference walk visits %.3f sessions per record on the dense trace; the bound no longer separates it from the queue", ref)
		}
	}
}
