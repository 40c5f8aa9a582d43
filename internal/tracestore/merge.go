package tracestore

import (
	"container/heap"
	"fmt"
	"os"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
)

// ScanByStart returns an iterator over one dataset ordered by flow
// start time. Records are start-sorted within every segment, so the
// iterator runs a k-way merge across the shard's segments — but opens
// a segment only when the merge frontier reaches its minimum start
// time and drops it as soon as it drains. Flow lifetimes are short
// relative to a segment's capture window, so consecutive segments
// overlap only at their edges and the merge holds a small constant
// number of decoded segments, not the whole shard.
func (r *Reader) ScanByStart(dataset string) capture.Iterator {
	sh, ok := r.shards[dataset]
	if !ok {
		return capture.IterSlice(nil)
	}
	it := &startIterator{r: r, sh: sh}
	// Pending segments in ascending min-start order; ties resolve by
	// spill order for determinism.
	it.pending = make([]int, len(sh.segs))
	for i := range it.pending {
		it.pending[i] = i
	}
	sortSegsByMinStart(sh, it.pending)
	return it
}

// sortSegsByMinStart orders segment indices by (minStart, spill order).
func sortSegsByMinStart(sh *rshard, idx []int) {
	for i := 1; i < len(idx); i++ { // insertion sort: spill order is nearly sorted already
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if sh.segs[a].minStart < sh.segs[b].minStart ||
				(sh.segs[a].minStart == sh.segs[b].minStart && a < b) {
				break
			}
			idx[j-1], idx[j] = b, a
		}
	}
}

// startArm is one open segment inside the start-ordered merge.
type startArm struct {
	seg       int // spill-order index, the deterministic tie-break
	recs      []capture.FlowRecord
	i         int
	footprint int64
}

// armHeap orders open segments by (current record start, spill order).
type armHeap []*startArm

func (h armHeap) Len() int { return len(h) }
func (h armHeap) Less(a, b int) bool {
	ra, rb := h[a].recs[h[a].i], h[b].recs[h[b].i]
	if ra.Start != rb.Start {
		return ra.Start < rb.Start
	}
	return h[a].seg < h[b].seg
}
func (h armHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *armHeap) Push(x any)   { *h = append(*h, x.(*startArm)) }
func (h *armHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// startIterator merges a shard's segments into global start order.
type startIterator struct {
	r       *Reader
	sh      *rshard
	f       *os.File
	pending []int // unopened segment indices, ascending minStart
	arms    armHeap
	err     error
	done    bool
}

// Next implements capture.Iterator.
func (it *startIterator) Next() (capture.FlowRecord, bool) {
	if it.done {
		return capture.FlowRecord{}, false
	}
	// Open every pending segment that could hold the next record: while
	// the heap is empty, or the earliest unopened segment starts at or
	// before the heap's current minimum.
	for len(it.pending) > 0 {
		next := it.pending[0]
		if len(it.arms) > 0 {
			top := it.arms[0]
			if it.sh.segs[next].minStart > top.recs[top.i].Start {
				break
			}
		}
		if !it.openSegment(next) {
			return capture.FlowRecord{}, false
		}
		it.pending = it.pending[1:]
	}
	if len(it.arms) == 0 {
		it.finish(nil)
		return capture.FlowRecord{}, false
	}
	top := it.arms[0]
	rec := top.recs[top.i]
	top.i++
	if top.i >= len(top.recs) {
		heap.Pop(&it.arms)
		it.r.release(top.footprint)
	} else {
		heap.Fix(&it.arms, 0)
	}
	return rec, true
}

// openSegment decodes segment seg into a new merge arm.
func (it *startIterator) openSegment(seg int) bool {
	if it.f == nil {
		f, err := os.Open(it.sh.path)
		if err != nil {
			it.finish(fmt.Errorf("tracestore: %w", err))
			return false
		}
		it.f = f
	}
	// A fresh buffer per arm: arms coexist on the merge heap, so their
	// record slices must not share backing arrays.
	recs, fp, err := it.r.loadSegment(it.f, it.sh, seg, &decodeBuf{})
	if err != nil {
		it.finish(err)
		return false
	}
	if len(recs) == 0 {
		it.r.release(fp)
		return true
	}
	heap.Push(&it.arms, &startArm{seg: seg, recs: recs, footprint: fp})
	return true
}

// Err implements capture.Iterator.
func (it *startIterator) Err() error { return it.err }

// Close releases the iterator early; idempotent.
func (it *startIterator) Close() error {
	it.finish(it.err)
	return it.err
}

// finish releases all open arms and the file handle.
func (it *startIterator) finish(err error) {
	if it.done {
		return
	}
	it.done = true
	if it.err == nil {
		it.err = err
	}
	for _, arm := range it.arms {
		it.r.release(arm.footprint)
	}
	it.arms = nil
	it.pending = nil
	if it.f != nil {
		if cerr := it.f.Close(); cerr != nil && it.err == nil {
			it.err = fmt.Errorf("tracestore: %w", cerr)
		}
		it.f = nil
	}
}
