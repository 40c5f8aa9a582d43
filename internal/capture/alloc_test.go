//go:build !race

package capture

import (
	"io"
	"testing"
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
