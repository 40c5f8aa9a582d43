//go:build !race

package capture

import (
	"io"
	"testing"
	"time"
)

// TestRecordAllocs is the capture path's allocation contract: in
// steady state WriterSink.Record appends into its current batch and
// MemSink.Record into its current chunk, so both average zero
// allocations per record. WriterSink allocates once per full
// 4096-record batch, the closure of the goroutine that encodes it (the
// encoder reuses its line buffer and the batch buffers swap); MemSink
// allocates once per chunk, the chunk itself.
func TestRecordAllocs(t *testing.T) {
	rec := sampleRecord()

	ws := NewWriterSink(io.Discard)
	if allocs := testing.AllocsPerRun(10_000, func() { ws.Record("US-Campus", rec) }); allocs != 0 {
		t.Errorf("WriterSink.Record allocates %.1f times per record, want 0", allocs)
	}
	perBatch := testing.AllocsPerRun(50, func() {
		for i := 0; i < writerBatch; i++ {
			ws.Record("US-Campus", rec)
		}
	})
	t.Logf("WriterSink: %.2f allocs per %d-record batch", perBatch, writerBatch)
	if perBatch > 1 {
		t.Errorf("WriterSink.Record allocates %.1f times per %d-record batch, want at most 1", perBatch, writerBatch)
	}

	m := NewMemSink()
	if allocs := testing.AllocsPerRun(10*chunkRecords, func() { m.Record("US-Campus", rec) }); allocs != 0 {
		t.Errorf("MemSink.Record allocates %.1f times per record, want 0", allocs)
	}
	perChunk := testing.AllocsPerRun(20, func() {
		for i := 0; i < chunkRecords; i++ {
			m.Record("US-Campus", rec)
		}
	})
	if perChunk > 1 {
		t.Errorf("MemSink.Record allocates %.1f times per %d-record chunk, want at most 1", perChunk, chunkRecords)
	}
}

// TestScanByStartAllocs is the in-memory start-ordered scan's
// contract: draining MemSink.ScanByStart or MapSource.ScanByStart over
// a recorded trace allocates the same count at 1,000 records as at
// 100,000, at most 4. MemSink allocates its chunk-list snapshot, the
// chunk iterator, the reorder and its 16-entry heap; MapSource the
// slice iterator, the reorder and the heap. The heap grows only when
// more records than it holds wait within the lag of the latest start;
// these traces, recorded in swapped pairs, hold at most two.
func TestScanByStartAllocs(t *testing.T) {
	drain := func(it Iterator) {
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
	}
	count := func(n int) (mem, slice float64) {
		recs := make([]FlowRecord, n)
		m := NewMemSink()
		for i := range recs {
			recs[i] = sampleRecord()
			recs[i].Start = time.Duration(i^1) * time.Millisecond
			m.Record("US-Campus", recs[i])
		}
		src := MapSource{"US-Campus": recs}
		mem = testing.AllocsPerRun(10, func() { drain(m.ScanByStart("US-Campus")) })
		slice = testing.AllocsPerRun(10, func() { drain(src.ScanByStart("US-Campus")) })
		return mem, slice
	}
	shortMem, shortSlice := count(1_000)
	longMem, longSlice := count(100_000)
	t.Logf("MemSink: %.0f allocs, MapSource: %.0f allocs", longMem, longSlice)
	if shortMem != longMem || longMem > 4 {
		t.Errorf("MemSink.ScanByStart allocates %.0f times over 1,000 records, %.0f over 100,000; want the same, at most 4", shortMem, longMem)
	}
	if shortSlice != longSlice || longSlice > 3 {
		t.Errorf("MapSource.ScanByStart allocates %.0f times over 1,000 records, %.0f over 100,000; want the same, at most 3", shortSlice, longSlice)
	}
}
