//go:build !race

package tracestore

import (
	"fmt"
	"os"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
)

// TestScanPathAllocs pins the zero-allocation contract of the
// steady-state scan path: once a scanIterator's decodeBuf has seen the
// shard's segment sizes, decoding further segments must not allocate
// at all — the payload, record array and server dictionary recycle,
// the resolution dictionary is a fixed array, and VideoIDs are copied
// from the payload into the records. The column decoders
// (decodeFixedCols, assignServers, assignVideos and assignResolutions)
// run on every segment this test decodes.
func TestScanPathAllocs(t *testing.T) {
	dir, _ := benchStore(t, 20_000, 1<<10)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh := r.shards["bench"]
	if len(sh.segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(sh.segs))
	}
	f, err := os.Open(sh.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Warm-up: one pass over every segment grows the recycled arrays to
	// the shard maximum.
	var buf decodeBuf
	for i := range sh.segs {
		_, fp, err := r.loadSegment(f, sh, i, &buf)
		if err != nil {
			t.Fatal(err)
		}
		r.release(fp)
	}

	seg := 0
	allocs := testing.AllocsPerRun(200, func() {
		_, fp, err := r.loadSegment(f, sh, seg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		r.release(fp)
		seg = (seg + 1) % len(sh.segs)
	})
	if allocs != 0 {
		t.Errorf("steady-state segment decode allocates %.1f times per segment, want 0", allocs)
	}
}

// TestColdScanAllocs pins that no scan allocates per distinct VideoID:
// a cold Iter and a cold ScanByStart over a multi-segment shard
// allocate the same count whether the shard holds 5 or 5,000 distinct
// VideoIDs. The two shards differ only in their VideoIDs, so they have
// the same segments, servers and starts. What Iter allocates is the
// iterator, the open file and one decode buffer sized for the shard's
// largest segment: its payload, record array and server dictionary.
// ScanByStart is the same scan behind capture.ByStart, which adds the
// reorder and its heap, whose growth depends on the starts alone. Each
// count averages twenty scans, so a stray runtime allocation during
// one scan (a GC cycle starting) does not move it.
func TestColdScanAllocs(t *testing.T) {
	const n, segRecords = 20_000, 1 << 10
	count := func(vocabulary int) (iter, byStart float64) {
		recs := genRecords(42, n)
		for i := range recs {
			recs[i].VideoID = capture.VideoID([]byte(fmt.Sprintf("v%010d", i%vocabulary)))
		}
		dir := t.TempDir()
		writeStore(t, dir, segRecords, map[string][]capture.FlowRecord{"ds": recs})
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		if segs := r.Segments("ds"); segs < 2 {
			t.Fatalf("want multiple segments, got %d", segs)
		}
		drain := func(it capture.Iterator) {
			seen := 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				seen++
			}
			if err := it.Err(); err != nil || seen != n {
				t.Fatalf("scanned %d records, want %d; err %v", seen, n, err)
			}
		}
		iter = testing.AllocsPerRun(20, func() { drain(r.Iter("ds")) })
		byStart = testing.AllocsPerRun(20, func() { drain(r.ScanByStart("ds")) })
		return iter, byStart
	}
	fewIter, fewByStart := count(5)
	manyIter, manyByStart := count(5_000)
	t.Logf("Iter: %.0f allocs, ScanByStart: %.0f allocs", fewIter, fewByStart)
	if fewIter != manyIter {
		t.Errorf("a cold Iter allocates %.0f times over 5 VideoIDs, %.0f over 5,000", fewIter, manyIter)
	}
	if fewByStart != manyByStart {
		t.Errorf("a cold ScanByStart allocates %.0f times over 5 VideoIDs, %.0f over 5,000", fewByStart, manyByStart)
	}
}

// TestSpillAllocs is the writer's spill contract: on a warmed writer,
// a spill — sorting the buffered records, encoding them as one segment
// and appending it to the shard file — allocates nothing. The segment
// bytes, the dictionary-id column and the three dictionaries are the
// writer's, kept from the last spill, and slices.SortStableFunc boxes
// nothing. A spill that meets more distinct values than any before it
// still grows the dictionaries once.
func TestSpillAllocs(t *testing.T) {
	const segRecords = 1 << 10
	w, err := NewWriter(t.TempDir(), Options{SegmentRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(7, segRecords)
	record := func() {
		for _, r := range recs {
			w.Record("ds", r)
		}
	}
	record() // creates the shard and sizes the writer's buffers
	if allocs := testing.AllocsPerRun(20, record); allocs != 0 {
		t.Errorf("a spill on a warmed writer allocates %.1f times, want 0", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.segments.Load(); got != 22 {
		t.Errorf("wrote %d segments, want 22", got)
	}
}
