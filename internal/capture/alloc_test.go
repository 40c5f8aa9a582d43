//go:build !race

package capture

import (
	"io"
	"testing"
)

// TestRecordAllocs is the capture path's allocation contract: in
// steady state WriterSink.Record encodes into its reused line buffer
// and MemSink.Record appends into its current chunk, so both average
// zero allocations per record; MemSink allocates once per chunk, the
// chunk itself.
func TestRecordAllocs(t *testing.T) {
	rec := sampleRecord()

	ws := NewWriterSink(io.Discard)
	if allocs := testing.AllocsPerRun(10_000, func() { ws.Record("US-Campus", rec) }); allocs != 0 {
		t.Errorf("WriterSink.Record allocates %.1f times per record, want 0", allocs)
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
