package analysis

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// Session is a group of related flows: same client, same VideoID,
// adjacent in time (paper §VI-A). Flows are ordered by start time.
type Session struct {
	Client  ipnet.Addr
	VideoID string
	Flows   []capture.FlowRecord
}

// Start returns the session's first flow start.
func (s Session) Start() time.Duration { return s.Flows[0].Start }

// sessionKey groups flows before temporal splitting.
type sessionKey struct {
	client ipnet.Addr
	video  string
}

// StreamSessions groups a trace into video sessions (paper §VI-A): it
// consumes an iterator whose records are ordered by start time (for a
// disk store, tracestore.Reader.ScanByStart) and invokes emit for every
// completed session. Flows with the same (client, VideoID) belong to
// one session while each flow starts within gap (the paper's T) of the
// furthest end seen so far, so overlapping flows always group and a
// long flow swallowing short ones does not split the session. Flows
// within a session are in input order. Memory is bounded by the
// sessions open at any instant — those whose temporal window can still
// accept a flow — never the whole trace.
//
// Sessions are emitted as they close (ordered by closing time, with
// deterministic tie-breaks), not by session start.
//
// A session closes either inline, when its next flow starts past its
// window, or at a sweep every sweepEvery records, which emits every
// session whose window ends before the cursor as one batch sorted by
// (start, client, VideoID). Sweeps pop only the expired sessions from
// a deadline queue, so the whole pass costs O(n log n).
func StreamSessions(it capture.Iterator, gap time.Duration, emit func(Session)) error {
	return newSessionizer(gap, emit).run(it)
}

// sweepEvery is how many records a start-ordered pass consumes between
// sweeps of its deadline queue.
const sweepEvery = 4096

// maxDuration is the end of time, the final sweep's cursor.
const maxDuration = time.Duration(math.MaxInt64)

// openSession is a session StreamSessions may still extend.
type openSession struct {
	Session
	// latest is the furthest end of the session's flows; the window
	// accepts flows starting at or before latest+gap. The queue holds
	// an entry no later than latest+gap for every open session, so a
	// sweep cannot miss an expired one.
	latest time.Duration
	closed bool
}

// closedSession is one session of a sweep's batch, with its sort key
// held inline.
type closedSession struct {
	start  time.Duration
	client ipnet.Addr
	video  string
	s      *openSession
}

// sessionizer is StreamSessions' state.
type sessionizer struct {
	gap   time.Duration
	emit  func(Session)
	open  map[sessionKey]*openSession
	queue deadlineQueue[*openSession]
	batch []closedSession
	// examined counts the queue entries sweeps look at, and peakOpen
	// the most sessions open at once: the work and memory bounds the
	// package's tests check.
	examined int
	peakOpen int
}

func newSessionizer(gap time.Duration, emit func(Session)) *sessionizer {
	return &sessionizer{gap: gap, emit: emit, open: make(map[sessionKey]*openSession)}
}

func (z *sessionizer) run(it capture.Iterator) error {
	var cursor time.Duration
	n := 0
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r.Start < cursor {
			return fmt.Errorf("analysis: StreamSessions input not ordered by start time (%v after %v)", r.Start, cursor)
		}
		cursor = r.Start
		z.add(r)
		n++
		if n%sweepEvery == 0 {
			z.sweep(cursor)
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	z.finish()
	return nil
}

// add places one record, closing its key's session inline when the
// record starts past the session's window.
func (z *sessionizer) add(r capture.FlowRecord) {
	k := sessionKey{client: r.Client, video: r.VideoID}
	s, ok := z.open[k]
	if ok && r.Start > s.latest+z.gap {
		z.emit(s.Session)
		s.closed = true
		ok = false
	}
	if !ok {
		s = &openSession{
			Session: Session{Client: r.Client, VideoID: r.VideoID, Flows: []capture.FlowRecord{r}},
			latest:  r.End,
		}
		z.open[k] = s
		z.queue.push(r.End+z.gap, s)
		z.peakOpen = max(z.peakOpen, len(z.open))
		return
	}
	s.Flows = append(s.Flows, r)
	if r.End > s.latest {
		// A later end moves the deadline earlier only when end+gap
		// overflows; queue the earlier deadline then.
		if d := r.End + z.gap; d < s.latest+z.gap {
			z.queue.push(d, s)
		}
		s.latest = r.End
	}
}

// sweep emits every open session whose window ends before cursor. A
// popped session that has grown since it was queued goes back into the
// queue under its current deadline.
func (z *sessionizer) sweep(cursor time.Duration) {
	for z.queue.due(cursor) {
		s := z.queue.pop().v
		z.examined++
		if s.closed {
			continue
		}
		if d := s.latest + z.gap; !(cursor > d) {
			z.queue.push(d, s)
			continue
		}
		z.close(s)
	}
	if len(z.queue) > 0 {
		z.examined++ // the entry that ended the sweep
	}
	z.emitBatch()
}

// finish closes everything left, as a sweep at the end of time with no
// gap would: no future flow can arrive.
func (z *sessionizer) finish() {
	for len(z.queue) > 0 {
		s := z.queue.pop().v
		z.examined++
		if !s.closed && maxDuration > s.latest {
			z.close(s)
		}
	}
	z.emitBatch()
}

func (z *sessionizer) close(s *openSession) {
	s.closed = true
	delete(z.open, sessionKey{client: s.Client, video: s.VideoID})
	z.batch = append(z.batch, closedSession{start: s.Start(), client: s.Client, video: s.VideoID, s: s})
}

// emitBatch emits the sessions one sweep closed, ordered by (start,
// client, VideoID). Keys are distinct within a batch, so the order is
// total.
func (z *sessionizer) emitBatch() {
	b := z.batch
	sort.Slice(b, func(i, j int) bool {
		if b[i].start != b[j].start {
			return b[i].start < b[j].start
		}
		if b[i].client != b[j].client {
			return b[i].client < b[j].client
		}
		return b[i].video < b[j].video
	})
	for _, c := range b {
		z.emit(c.s.Session)
	}
	clear(b)
	z.batch = b[:0]
}

// SessionTalliesIter tallies the flows-per-session histogram (buckets
// as in NewSessionTally) of a start-ordered stream at every gap in one
// pass: tallies[i] equals tallying each session StreamSessions emits
// at gaps[i], for any trace whose flow ends plus the largest gap stay
// below the maximum Duration. Per (client, VideoID) it keeps, for each
// gap, the open session's furthest end and flow count, splitting by
// StreamSessions' rule. A key leaves memory at the first sweep after
// every gap's window has closed, so memory is bounded by the keys open
// at the largest gap.
func SessionTalliesIter(it capture.Iterator, gaps []time.Duration, maxBucket int) ([]*SessionTally, error) {
	tallies := make([]*SessionTally, len(gaps))
	for i := range tallies {
		tallies[i] = NewSessionTally(maxBucket)
	}
	open := make(map[sessionKey]*tallyKey)
	var queue deadlineQueue[*tallyKey]
	var free []*tallyKey
	var cursor time.Duration
	n := 0
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r.Start < cursor {
			return nil, fmt.Errorf("analysis: SessionTalliesIter input not ordered by start time (%v after %v)", r.Start, cursor)
		}
		cursor = r.Start
		sk := sessionKey{client: r.Client, video: r.VideoID}
		k, ok := open[sk]
		if !ok {
			if len(free) > 0 {
				k, free = free[len(free)-1], free[:len(free)-1]
			} else {
				k = &tallyKey{latest: make([]time.Duration, len(gaps)), flows: make([]int, len(gaps))}
			}
			k.key = sk
			for g := range gaps {
				k.latest[g], k.flows[g] = r.End, 1
			}
			open[sk] = k
			queue.push(k.deadline(gaps), k)
		} else {
			for g, gap := range gaps {
				if r.Start > k.latest[g]+gap {
					tallies[g].count(k.flows[g])
					k.latest[g], k.flows[g] = r.End, 1
					continue
				}
				k.flows[g]++
				if r.End > k.latest[g] {
					k.latest[g] = r.End
				}
			}
		}
		n++
		if n%sweepEvery != 0 {
			continue
		}
		for queue.due(cursor) {
			k := queue.pop().v
			if !k.expired(cursor, gaps) {
				queue.push(k.deadline(gaps), k)
				continue
			}
			for g, t := range tallies {
				t.count(k.flows[g])
			}
			delete(open, k.key)
			free = append(free, k)
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	for len(queue) > 0 {
		k := queue.pop().v
		for g, t := range tallies {
			t.count(k.flows[g])
		}
	}
	return tallies, nil
}

// tallyKey is SessionTalliesIter's state for one (client, VideoID):
// per gap, the open session's furthest end and flow count.
type tallyKey struct {
	key    sessionKey
	latest []time.Duration
	flows  []int
}

// deadline is the last window end among the key's open sessions.
func (k *tallyKey) deadline(gaps []time.Duration) time.Duration {
	d := time.Duration(math.MinInt64)
	for g, gap := range gaps {
		d = max(d, k.latest[g]+gap)
	}
	return d
}

// expired reports whether every gap's session has closed: no record
// starting at or after cursor can join any of them.
func (k *tallyKey) expired(cursor time.Duration, gaps []time.Duration) bool {
	for g, gap := range gaps {
		if !(cursor > k.latest[g]+gap) {
			return false
		}
	}
	return true
}

// deadlineQueue is a binary min-heap of values keyed by a deadline,
// typed so entries are not boxed. Equal deadlines pop in an arbitrary
// but deterministic order.
type deadlineQueue[T any] []deadlineEntry[T]

type deadlineEntry[T any] struct {
	at time.Duration
	v  T
}

// due reports whether the earliest deadline precedes cursor.
func (q deadlineQueue[T]) due(cursor time.Duration) bool {
	return len(q) > 0 && q[0].at < cursor
}

func (q *deadlineQueue[T]) push(at time.Duration, v T) {
	h := append(*q, deadlineEntry[T]{at: at, v: v})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

func (q *deadlineQueue[T]) pop() deadlineEntry[T] {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = deadlineEntry[T]{}
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].at < h[c].at {
			c = r
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}
