package tracestore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// Writer is a capture.Sink that spills flow records to a disk store.
// It keeps one shard per dataset, each with its own buffer and file.
// One goroutine records into a Writer, flushes and closes it, so it
// takes no lock; only its I/O accounting is atomic, for the metrics
// scrape that reads it from another goroutine mid-run (see
// Instrument). Write errors are sticky per shard and surfaced by
// Close.
type Writer struct {
	dir        string
	segRecords int

	shards map[string]*wshard
	closed bool
	// enc keeps its buffers from one spill to the next, whichever
	// shard spills.
	enc segmentEncoder

	// Cross-shard I/O accounting, readable mid-run by the metrics
	// scrape goroutine (see Instrument).
	bytesWritten atomic.Int64
	segments     atomic.Int64
	recordsLive  atomic.Int64
}

// wshard is one dataset's write state.
type wshard struct {
	f   *os.File
	buf []capture.FlowRecord
	err error
}

// NewWriter creates (or truncates into) a store directory and returns
// a writer over it. The directory is created if missing; existing
// shard files in it are removed, so a writer always produces a
// self-consistent store.
func NewWriter(dir string, opts Options) (*Writer, error) {
	if opts.SegmentRecords == 0 {
		opts.SegmentRecords = DefaultSegmentRecords
	}
	if opts.SegmentRecords < 1 {
		return nil, fmt.Errorf("tracestore: SegmentRecords %d < 1", opts.SegmentRecords)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, "*"+shardSuffix))
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("tracestore: removing stale shard: %w", err)
		}
	}
	return &Writer{
		dir:        dir,
		segRecords: opts.SegmentRecords,
		shards:     make(map[string]*wshard),
	}, nil
}

// shard returns (creating on first use) the dataset's shard. A shard
// whose file could not be created or headed keeps the error, drops the
// dataset's records and reports the error at Close.
func (w *Writer) shard(dataset string) *wshard {
	if s, ok := w.shards[dataset]; ok {
		return s
	}
	s := &wshard{}
	w.shards[dataset] = s
	f, err := os.Create(filepath.Join(w.dir, shardFileName(dataset)))
	if err != nil {
		s.err = fmt.Errorf("tracestore: %w", err)
		return s
	}
	// Shard header: magic, then the authentic dataset name.
	hdr := append([]byte(shardMagic), appendUvarintLen(dataset)...)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		s.err = fmt.Errorf("tracestore: shard header: %w", err)
		return s
	}
	s.f = f
	s.buf = make([]capture.FlowRecord, 0, w.segRecords)
	w.bytesWritten.Add(int64(len(hdr)))
	return s
}

// Record implements capture.Sink. Records after Close are dropped, and
// so are the records of a shard whose file has failed.
func (w *Writer) Record(dataset string, rec capture.FlowRecord) {
	if w.closed {
		return
	}
	s := w.shard(dataset)
	if s.err != nil {
		return
	}
	s.buf = append(s.buf, rec)
	w.recordsLive.Add(1)
	if len(s.buf) >= w.segRecords {
		w.spill(s)
	}
}

// spill encodes and appends a shard's buffered records as one segment.
func (w *Writer) spill(s *wshard) {
	if len(s.buf) == 0 || s.err != nil {
		return
	}
	seg := w.enc.encode(s.buf)
	if _, err := s.f.Write(seg); err != nil {
		s.err = fmt.Errorf("tracestore: segment: %w", err)
		return
	}
	w.bytesWritten.Add(int64(len(seg)))
	w.segments.Add(1)
	s.buf = s.buf[:0]
}

// Instrument publishes the writer's live I/O accounting into reg:
// "store.write.records", "store.write.bytes" and
// "store.write.segments". The gauges read atomics the writer keeps
// anyway, so scraping mid-run contends with nothing.
func (w *Writer) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("store.write.records", func() float64 { return float64(w.recordsLive.Load()) })
	reg.GaugeFunc("store.write.bytes", func() float64 { return float64(w.bytesWritten.Load()) })
	reg.GaugeFunc("store.write.segments", func() float64 { return float64(w.segments.Load()) })
}

// Flush spills every shard's buffered records as (possibly short)
// segments without closing the writer. It returns the first error in
// dataset order.
func (w *Writer) Flush() error {
	var first error
	for _, name := range w.datasets() {
		s := w.shards[name]
		w.spill(s)
		if s.err != nil && first == nil {
			first = s.err
		}
	}
	return first
}

// Close spills all buffers, syncs and closes every shard file, and
// returns the first error in dataset order. The writer is unusable
// afterwards: it drops later records, so closing it again has nothing
// left to write.
func (w *Writer) Close() error {
	first := w.Flush()
	w.closed = true
	for _, name := range w.datasets() {
		s := w.shards[name]
		if s.err != nil && first == nil {
			first = s.err
		}
		if s.f != nil {
			if err := s.f.Sync(); err != nil && first == nil {
				first = fmt.Errorf("tracestore: %w", err)
			}
			if err := s.f.Close(); err != nil && first == nil {
				first = fmt.Errorf("tracestore: %w", err)
			}
			s.f = nil
		}
	}
	return first
}

// datasets returns the names of the writer's shards, sorted.
func (w *Writer) datasets() []string {
	names := make([]string, 0, len(w.shards))
	for name := range w.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var _ capture.Sink = (*Writer)(nil)

// appendUvarintLen renders a length-prefixed string.
func appendUvarintLen(s string) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(s)))
	return append(buf, s...)
}
