package tracestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// Reader opens a store directory for analysis. It indexes every shard
// once (headers only — payloads stay on disk) and hands out streaming
// iterators that decode one segment at a time, so scanning a shard
// buffers at most one decoded segment regardless of trace size.
//
// Reader implements capture.TraceSource, so the analysis side consumes
// a disk store and an in-memory sink through the same interface. It is
// safe for concurrent use; the iterators it returns are not (use one
// per goroutine).
type Reader struct {
	dir    string
	shards map[string]*rshard
	names  []string

	// buffered tracks the decoded-segment bytes currently held by live
	// iterators; peak remembers the high-water mark. These power the
	// bounded-memory benchmark: scanning a store must never buffer more
	// than ~one segment per shard.
	buffered atomic.Int64
	peak     atomic.Int64
	// bytesRead / segsDecoded account scan I/O for the metrics layer
	// (see Instrument).
	bytesRead   atomic.Int64
	segsDecoded atomic.Int64
}

// rshard is one dataset's read-side index.
type rshard struct {
	dataset   string
	path      string
	segs      []segMeta
	records   int64
	truncated bool
	// maxCount and maxPayload size a sequential scan's buffers once
	// for the shard's largest segment.
	maxCount, maxPayload uint32
	// lag bounds how far the stored order runs behind start order
	// (see capture.StartLag), from the segment headers.
	lag time.Duration
}

// segMeta locates one segment inside a shard file.
type segMeta struct {
	payloadOff int64
	segHeader
}

// OpenReader indexes a store directory. Shards with a truncated final
// segment (a crash mid-spill) lose only the truncated tail: every
// complete segment before it is served, and Truncated reports the
// recovery. A shard whose own header never finished (a crash between
// file creation and the first write) carries no recoverable records
// and no dataset name, so it is skipped entirely. Corruption anywhere
// else is an error.
func OpenReader(dir string) (*Reader, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+shardSuffix))
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	sort.Strings(paths)
	r := &Reader{dir: dir, shards: make(map[string]*rshard, len(paths))}
	for _, path := range paths {
		sh, err := indexShard(path)
		if err != nil {
			return nil, err
		}
		if sh == nil {
			continue // truncated shard header: nothing recoverable
		}
		if _, dup := r.shards[sh.dataset]; dup {
			return nil, fmt.Errorf("tracestore: dataset %q appears in two shard files", sh.dataset)
		}
		r.shards[sh.dataset] = sh
		r.names = append(r.names, sh.dataset)
	}
	sort.Strings(r.names)
	return r, nil
}

// indexShard reads a shard's header and walks its segment headers. A
// nil, nil return means the shard header itself was cut short by a
// crash — a skippable artifact, distinct from a non-shard file.
func indexShard(path string) (*rshard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}

	magic := make([]byte, len(shardMagic))
	if n, err := f.ReadAt(magic, 0); err != nil {
		if err == io.EOF && string(magic[:n]) == shardMagic[:n] {
			return nil, nil // crash before the magic finished
		}
		return nil, fmt.Errorf("tracestore: %s is not a shard file", path)
	}
	if string(magic) != shardMagic {
		return nil, fmt.Errorf("tracestore: %s is not a shard file", path)
	}
	// The dataset name is a uvarint length + bytes right after the magic.
	nameHdr := make([]byte, binary.MaxVarintLen64)
	n, err := f.ReadAt(nameHdr, int64(len(shardMagic)))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	nameLen, used := binary.Uvarint(nameHdr[:n])
	if used == 0 {
		return nil, nil // crash before the name length finished
	}
	if used < 0 || nameLen > 1<<16 {
		return nil, fmt.Errorf("tracestore: %s has a malformed shard header", path)
	}
	name := make([]byte, nameLen)
	nameOff := int64(len(shardMagic)) + int64(used)
	if _, err := f.ReadAt(name, nameOff); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil // crash before the name finished
		}
		return nil, fmt.Errorf("tracestore: %s shard header: %w", path, err)
	}

	sh := &rshard{dataset: string(name), path: path}
	// Each segment is start-sorted and the segments lie in spill order,
	// so no record starts before one stored earlier by more than the
	// latest maxStart of the segments before its own minus its own
	// segment's minStart. loadSegment holds every segment to its header.
	var lag capture.StartLag
	off := nameOff + int64(nameLen)
	hdr := make([]byte, segHeaderSize)
	for off < size {
		if size-off < segHeaderSize {
			sh.truncated = true // crash mid-header
			break
		}
		if _, err := f.ReadAt(hdr, off); err != nil {
			return nil, fmt.Errorf("tracestore: %s at %d: %w", path, off, err)
		}
		h, err := parseSegHeader(hdr)
		if err != nil {
			return nil, fmt.Errorf("tracestore: %s at %d: %w", path, off, err)
		}
		if size-off-segHeaderSize < int64(h.payloadLen) {
			sh.truncated = true // crash mid-payload
			break
		}
		// Each record costs at least one payload byte (see
		// decodeBuf.decode), so a larger count is a corrupted header.
		if h.count > h.payloadLen {
			return nil, fmt.Errorf("tracestore: %s at %d: segment count %d impossible for %d payload bytes",
				path, off, h.count, h.payloadLen)
		}
		sh.segs = append(sh.segs, segMeta{payloadOff: off + segHeaderSize, segHeader: h})
		sh.records += int64(h.count)
		sh.maxCount = max(sh.maxCount, h.count)
		sh.maxPayload = max(sh.maxPayload, h.payloadLen)
		lag.Add(h.minStart, h.maxStart)
		off += segHeaderSize + int64(h.payloadLen)
	}
	sh.lag = lag.Lag()
	return sh, nil
}

// Dir returns the store directory.
func (r *Reader) Dir() string { return r.dir }

// Datasets implements capture.TraceSource.
func (r *Reader) Datasets() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Records returns the record count of one dataset (0 if absent).
func (r *Reader) Records(dataset string) int64 {
	if sh, ok := r.shards[dataset]; ok {
		return sh.records
	}
	return 0
}

// TotalRecords returns the record count across datasets.
func (r *Reader) TotalRecords() int64 {
	var n int64
	for _, sh := range r.shards {
		n += sh.records
	}
	return n
}

// Segments returns how many complete segments a dataset has.
func (r *Reader) Segments(dataset string) int {
	if sh, ok := r.shards[dataset]; ok {
		return len(sh.segs)
	}
	return 0
}

// Truncated reports whether a dataset's shard ended in a truncated
// segment that was dropped during recovery.
func (r *Reader) Truncated(dataset string) bool {
	if sh, ok := r.shards[dataset]; ok {
		return sh.truncated
	}
	return false
}

// BufferedBytes returns the decoded-segment bytes currently held by
// this reader's live iterators.
func (r *Reader) BufferedBytes() int64 { return r.buffered.Load() }

// PeakBufferedBytes returns the high-water mark of BufferedBytes.
func (r *Reader) PeakBufferedBytes() int64 { return r.peak.Load() }

// acquire charges decoded bytes to the gauge.
func (r *Reader) acquire(n int64) {
	cur := r.buffered.Add(n)
	for {
		p := r.peak.Load()
		if cur <= p || r.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// release returns decoded bytes to the gauge.
func (r *Reader) release(n int64) { r.buffered.Add(-n) }

// loadSegment reads, CRC-checks and decodes one segment into buf. The
// returned records alias buf's arrays, valid until the next load into
// buf; the sequential scan iterator reuses one buffer for its whole
// walk. The CRC covers the payload, not the header, so a segment whose
// first or last decoded start is not its header's minStart or maxStart
// is corrupt: the shard's lag, and with it ScanByStart's order, rests
// on those two fields.
func (r *Reader) loadSegment(f *os.File, sh *rshard, i int, buf *decodeBuf) ([]capture.FlowRecord, int64, error) {
	m := sh.segs[i]
	payload := buf.payloadSlot(int(m.payloadLen))
	if _, err := f.ReadAt(payload, m.payloadOff); err != nil {
		return nil, 0, fmt.Errorf("tracestore: %s segment %d: %w", sh.dataset, i, err)
	}
	if crc32.ChecksumIEEE(payload) != m.crc {
		return nil, 0, fmt.Errorf("tracestore: %s segment %d: checksum mismatch", sh.dataset, i)
	}
	recs, fp, err := buf.decode(int(m.count))
	if err != nil {
		return nil, 0, fmt.Errorf("tracestore: %s segment %d: %w", sh.dataset, i, err)
	}
	if n := len(recs); n > 0 && (recs[0].Start != m.minStart || recs[n-1].Start != m.maxStart) {
		return nil, 0, fmt.Errorf("tracestore: %s segment %d: header start range disagrees with its records", sh.dataset, i)
	}
	r.acquire(fp)
	r.bytesRead.Add(int64(m.payloadLen))
	r.segsDecoded.Add(1)
	return recs, fp, nil
}

// BytesScanned returns the payload bytes read and decoded so far. Safe
// from any goroutine.
func (r *Reader) BytesScanned() int64 { return r.bytesRead.Load() }

// Instrument publishes the reader's live scan accounting into reg:
// "store.scan.bytes", "store.scan.segments",
// "store.scan.buffered_bytes" and "store.scan.peak_buffered_bytes".
func (r *Reader) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("store.scan.bytes", func() float64 { return float64(r.bytesRead.Load()) })
	reg.GaugeFunc("store.scan.segments", func() float64 { return float64(r.segsDecoded.Load()) })
	reg.GaugeFunc("store.scan.buffered_bytes", func() float64 { return float64(r.buffered.Load()) })
	reg.GaugeFunc("store.scan.peak_buffered_bytes", func() float64 { return float64(r.peak.Load()) })
}

// Iter implements capture.TraceSource: a streaming iterator over one
// dataset in stored order (segments in spill order, records
// start-sorted within each segment). It decodes one segment at a time
// and closes its file handle at exhaustion or first error.
func (r *Reader) Iter(dataset string) capture.Iterator {
	sh, ok := r.shards[dataset]
	if !ok {
		return capture.IterSlice(nil)
	}
	return &scanIterator{r: r, sh: sh}
}

// ScanByStart implements capture.TraceSource: Iter's stream through
// capture.ByStart, at the lag the index took from the segment headers.
// Equal starts come in stored order: by segment in spill order, then
// stable within the segment, which is emission order. When no segment
// starts before an earlier one ends, the lag is 0 and the scan is
// Iter's.
func (r *Reader) ScanByStart(dataset string) capture.Iterator {
	sh, ok := r.shards[dataset]
	if !ok {
		return capture.IterSlice(nil)
	}
	return capture.ByStart(&scanIterator{r: r, sh: sh}, sh.lag)
}

// scanIterator walks a shard segment by segment. It owns one decodeBuf
// for its lifetime, sized on open for the shard's largest segment, so
// scanning recycles the payload, record and dictionary arrays instead
// of reallocating them per segment; the records handed out by Next are
// therefore valid only until the iterator advances past their segment
// — which is exactly the capture.Iterator contract (records are
// returned by value).
type scanIterator struct {
	r         *Reader
	sh        *rshard
	f         *os.File
	seg       int
	recs      []capture.FlowRecord
	i         int
	footprint int64
	buf       decodeBuf
	err       error
	done      bool
}

// Next implements capture.Iterator.
func (it *scanIterator) Next() (capture.FlowRecord, bool) {
	for {
		if it.i < len(it.recs) {
			rec := it.recs[it.i]
			it.i++
			return rec, true
		}
		if it.done {
			return capture.FlowRecord{}, false
		}
		it.dropSegment()
		if it.seg >= len(it.sh.segs) {
			it.finish(nil)
			return capture.FlowRecord{}, false
		}
		if it.f == nil {
			f, err := os.Open(it.sh.path)
			if err != nil {
				it.finish(fmt.Errorf("tracestore: %w", err))
				return capture.FlowRecord{}, false
			}
			it.f = f
			it.buf.payload = make([]byte, 0, it.sh.maxPayload)
			it.buf.recs = make([]capture.FlowRecord, 0, it.sh.maxCount)
		}
		recs, fp, err := it.r.loadSegment(it.f, it.sh, it.seg, &it.buf)
		if err != nil {
			it.finish(err)
			return capture.FlowRecord{}, false
		}
		it.seg++
		it.recs, it.i, it.footprint = recs, 0, fp
	}
}

// Err implements capture.Iterator.
func (it *scanIterator) Err() error { return it.err }

// dropSegment returns the current decoded segment to the gauge.
func (it *scanIterator) dropSegment() {
	if it.footprint != 0 {
		it.r.release(it.footprint)
		it.footprint = 0
	}
	it.recs, it.i = nil, 0
}

// finish records the terminal state and closes the file.
func (it *scanIterator) finish(err error) {
	if it.done {
		return
	}
	it.done = true
	if it.err == nil {
		it.err = err
	}
	it.dropSegment()
	if it.f != nil {
		if cerr := it.f.Close(); cerr != nil && it.err == nil {
			it.err = fmt.Errorf("tracestore: %w", cerr)
		}
		it.f = nil
	}
}

var _ capture.TraceSource = (*Reader)(nil)
