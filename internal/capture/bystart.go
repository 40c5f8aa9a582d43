package capture

import (
	"math"
	"time"
)

// StartLag measures how far a stream runs behind start order: the
// largest amount by which a start precedes the latest start before it.
// A stream in start order has lag 0. Feed it runs of starts in stream
// order: one record is the run (Start, Start), and a block already
// sorted by start, such as a store segment, is the run (first, last).
// The lag saturates at math.MaxInt64, which ByStart reads as unbounded.
type StartLag struct {
	latest, lag time.Duration
	seen        bool
}

// Add feeds the next run of starts: lo is its first, hi its last.
func (s *StartLag) Add(lo, hi time.Duration) {
	if s.seen && lo < s.latest {
		// Exact for any two int64s with lo < latest, up to saturation.
		d := uint64(s.latest) - uint64(lo)
		s.lag = max(s.lag, time.Duration(min(d, math.MaxInt64)))
	}
	if !s.seen || hi > s.latest {
		s.latest = hi
	}
	s.seen = true
}

// Lag returns the lag of the starts fed so far.
func (s *StartLag) Lag() time.Duration { return s.lag }

// addRecords feeds recs to the lag, one run per record.
func (s *StartLag) addRecords(recs []FlowRecord) {
	for i := range recs {
		s.Add(recs[i].Start, recs[i].Start)
	}
}

// ByStart returns it in start order: exactly the order sort.SliceStable
// by Start gives its records, equal starts in stream order. lag must be
// at least the stream's StartLag; at lag 0 ByStart returns it itself.
//
// Records wait in a binary min-heap keyed by (start, stream position).
// The minimum leaves once the latest start read reaches its start plus
// lag, since every later record starts at or after the latest start
// minus lag. So the heap holds only the records within lag of the
// latest start, and at math.MaxInt64 the whole stream. Once the stream
// fails, nothing more is yielded and Err reports the failure.
func ByStart(it Iterator, lag time.Duration) Iterator {
	if lag <= 0 {
		return it
	}
	// Emission order is nearly start order, so the heap stays small:
	// the suite holds at most 14 records at scale 0.25, 23 at 1.0.
	return &startOrder{src: it, lag: lag, heap: make([]startEntry, 0, 16)}
}

// startEntry is one record waiting in the reorder heap.
type startEntry struct {
	rec FlowRecord
	pos uint64 // position in the source stream
}

// before orders entries by (start, stream position).
func (e *startEntry) before(o *startEntry) bool {
	return e.rec.Start < o.rec.Start || e.rec.Start == o.rec.Start && e.pos < o.pos
}

// startOrder is ByStart's reorder.
type startOrder struct {
	src     Iterator
	lag     time.Duration
	heap    []startEntry
	read    uint64        // records read from src
	latest  time.Duration // the latest start read
	drained bool
}

// Next implements Iterator.
func (o *startOrder) Next() (FlowRecord, bool) {
	for !o.drained && (len(o.heap) == 0 || !o.due()) {
		r, ok := o.src.Next()
		if !ok {
			o.drained = true
			if o.src.Err() != nil {
				o.heap = o.heap[:0]
			}
			break
		}
		if o.read == 0 || r.Start > o.latest {
			o.latest = r.Start
		}
		o.push(startEntry{rec: r, pos: o.read})
		o.read++
	}
	if len(o.heap) == 0 {
		return FlowRecord{}, false
	}
	return o.pop(), true
}

// Err implements Iterator.
func (o *startOrder) Err() error { return o.src.Err() }

// due reports whether the heap's minimum may leave. The latest start is
// at least the minimum's, so their difference is exact in uint64.
func (o *startOrder) due() bool {
	return o.lag != math.MaxInt64 && uint64(o.latest)-uint64(o.heap[0].rec.Start) >= uint64(o.lag)
}

func (o *startOrder) push(e startEntry) {
	h := append(o.heap, e)
	for i := len(h) - 1; i > 0 && h[i].before(&h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	o.heap = h
}

func (o *startOrder) pop() FlowRecord {
	h := o.heap
	top := h[0].rec
	n := len(h) - 1
	h[0], h = h[n], h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if c >= n || !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	o.heap = h
	return top
}
