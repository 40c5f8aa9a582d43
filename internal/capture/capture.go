// Package capture is the simulated Tstat probe: it defines the
// flow-level records logged at each vantage point's access link and
// the trace serialization used to move them between the simulator and
// the analysis pipeline.
//
// A record carries exactly the fields the paper's datasets expose
// (§III-B): source and destination addresses, start and end times,
// byte count, the VideoID string and the requested resolution. The
// analysis side sees nothing else — in particular, no data-center,
// redirect-reason or class annotations.
package capture

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// FlowRecord is one TCP flow as logged by the probe.
type FlowRecord struct {
	Client     ipnet.Addr
	Server     ipnet.Addr
	Start      time.Duration // offset from capture start
	End        time.Duration
	Bytes      int64
	VideoID    string // 11-character YouTube-style identifier
	Resolution string
}

// Duration returns the flow's lifetime.
func (r FlowRecord) Duration() time.Duration { return r.End - r.Start }

// Sink consumes flow records as the simulation emits them.
type Sink interface {
	Record(dataset string, rec FlowRecord)
}

// Iterator streams flow records one at a time. Next returns the next
// record and true, or a zero record and false once the stream is
// exhausted or fails; after Next returns false, Err reports the first
// error encountered (nil on clean exhaustion). Iterators are not safe
// for concurrent use.
type Iterator interface {
	Next() (FlowRecord, bool)
	Err() error
}

// TraceSource exposes captured traces per dataset as streams. It is
// the seam between trace storage (in-memory sinks, the disk-backed
// tracestore) and the analysis side: consumers that accept a
// TraceSource work identically over both.
type TraceSource interface {
	// Datasets returns the dataset names present, sorted.
	Datasets() []string
	// Iter returns a fresh iterator over one dataset's records. An
	// unknown dataset yields an empty iterator.
	Iter(dataset string) Iterator
}

// sliceIterator walks an in-memory record slice.
type sliceIterator struct {
	recs []FlowRecord
	i    int
}

// IterSlice returns an Iterator over recs. The slice is not copied;
// callers must not mutate it while iterating.
func IterSlice(recs []FlowRecord) Iterator { return &sliceIterator{recs: recs} }

func (it *sliceIterator) Next() (FlowRecord, bool) {
	if it.i >= len(it.recs) {
		return FlowRecord{}, false
	}
	r := it.recs[it.i]
	it.i++
	return r, true
}

func (it *sliceIterator) Err() error { return nil }

// ErrIter returns an empty iterator whose Err reports err — the
// iterator-shaped way to surface a failure discovered before streaming
// could begin.
func ErrIter(err error) Iterator { return &errIterator{err: err} }

type errIterator struct{ err error }

func (e *errIterator) Next() (FlowRecord, bool) { return FlowRecord{}, false }
func (e *errIterator) Err() error               { return e.err }

// FilterIter wraps an iterator, yielding only the records keep accepts.
// It is lazy — one upstream record is consumed per accepted (or
// skipped) record — so filtering a disk-backed stream stays bounded by
// the upstream's buffering.
func FilterIter(it Iterator, keep func(FlowRecord) bool) Iterator {
	return &filterIterator{it: it, keep: keep}
}

type filterIterator struct {
	it   Iterator
	keep func(FlowRecord) bool
}

func (f *filterIterator) Next() (FlowRecord, bool) {
	for {
		r, ok := f.it.Next()
		if !ok {
			return FlowRecord{}, false
		}
		if f.keep(r) {
			return r, true
		}
	}
}

func (f *filterIterator) Err() error { return f.it.Err() }

// Collect drains an iterator into a slice, returning the iterator's
// error if the stream failed.
func Collect(it Iterator) ([]FlowRecord, error) {
	var out []FlowRecord
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, it.Err()
}

// MapSource adapts a per-dataset record map to the TraceSource
// interface. The map and its slices are referenced, not copied.
type MapSource map[string][]FlowRecord

// Datasets implements TraceSource.
func (m MapSource) Datasets() []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Iter implements TraceSource.
func (m MapSource) Iter(dataset string) Iterator { return IterSlice(m[dataset]) }

var _ TraceSource = MapSource(nil)

// chunkRecords is the number of records per MemSink chunk. A
// FlowRecord is 64 bytes, so a full chunk is exactly 32 KiB, which Go
// allocates as four whole pages with no per-object header. A smaller
// power of two would carry an 8-byte malloc header and land in the
// next size class up, wasting an eighth of it. Chunks never regrow, so
// each record is copied once, where a doubling slice copies the whole
// trace again at every regrowth.
const chunkRecords = 512

// MemSink accumulates records per dataset in memory, in chunks of
// chunkRecords records. It is safe for concurrent use, so it survives
// being tee'd from studies running in parallel.
type MemSink struct {
	mu sync.Mutex
	// guarded by mu
	byDataset map[string]*memTrace
}

// memTrace is one dataset's records in emission order. Records are
// only ever appended to the last chunk, and a chunk is never written
// below its length, so a copy of the chunk list is a stable snapshot.
type memTrace struct {
	chunks [][]FlowRecord
	n      int
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink {
	return &MemSink{byDataset: make(map[string]*memTrace)}
}

// Record implements Sink.
func (m *MemSink) Record(dataset string, rec FlowRecord) {
	m.mu.Lock()
	t := m.byDataset[dataset]
	if t == nil {
		t = &memTrace{}
		m.byDataset[dataset] = t
	}
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		t.chunks = append(t.chunks, make([]FlowRecord, 0, chunkRecords))
		last++
	}
	t.chunks[last] = append(t.chunks[last], rec)
	t.n++
	m.mu.Unlock()
}

// Trim shrinks each dataset's last chunk to its length, releasing the
// unused tail of a partly filled chunk. Call it once recording is
// done; a later Record starts a fresh chunk.
func (m *MemSink) Trim() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.byDataset {
		last := len(t.chunks) - 1
		if c := t.chunks[last]; len(c) < cap(c) {
			t.chunks[last] = append([]FlowRecord(nil), c...)
		}
	}
}

// Trace returns a copy of the records captured for a dataset, in
// emission order. The copy is the caller's to keep: mutating it cannot
// corrupt the sink, and later Record calls do not grow it. A dataset
// never recorded returns nil. Iter streams the records without the
// copy.
func (m *MemSink) Trace(dataset string) []FlowRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.byDataset[dataset]
	if t == nil {
		return nil
	}
	out := make([]FlowRecord, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Datasets returns the dataset names seen so far, sorted.
func (m *MemSink) Datasets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.byDataset))
	for name := range m.byDataset {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Iter returns an iterator over a dataset's records in emission order.
// It iterates a snapshot of the records captured so far, without
// copying them: records recorded after the call are not seen.
func (m *MemSink) Iter(dataset string) Iterator {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.byDataset[dataset]
	if t == nil {
		return &chunkIterator{}
	}
	return &chunkIterator{chunks: append([][]FlowRecord(nil), t.chunks...)}
}

// chunkIterator walks a chunk list.
type chunkIterator struct {
	chunks [][]FlowRecord
	cur    []FlowRecord
}

func (it *chunkIterator) Next() (FlowRecord, bool) {
	for len(it.cur) == 0 {
		if len(it.chunks) == 0 {
			return FlowRecord{}, false
		}
		it.cur, it.chunks = it.chunks[0], it.chunks[1:]
	}
	r := it.cur[0]
	it.cur = it.cur[1:]
	return r, true
}

func (it *chunkIterator) Err() error { return nil }

var _ TraceSource = (*MemSink)(nil)

// TotalRecords returns the record count across datasets.
func (m *MemSink) TotalRecords() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.byDataset {
		n += t.n
	}
	return n
}

var _ Sink = (*MemSink)(nil)

// WriterSink streams records as TSV lines, one file per study (the
// dataset name is the first column). It buffers internally; call Flush
// before reading the output. WriterSink is safe for concurrent use —
// each record is written as one atomic line, so a sink shared by
// concurrent studies (RunMany with a common ExtraSink) produces an
// interleaved but well-formed stream.
type WriterSink struct {
	mu sync.Mutex
	// guarded by mu
	w *bufio.Writer
	// line is the reused encode buffer of one TSV line.
	// guarded by mu
	line []byte
	// err is sticky: the first write failure wins.
	// guarded by mu
	err error
}

// NewWriterSink wraps w.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{w: bufio.NewWriterSize(w, 1<<20)}
}

// Record implements Sink. Errors are sticky and surfaced by Flush.
// The line is encoded into a buffer the sink reuses, so a record costs
// no allocation; ParseLine reads it back.
func (ws *WriterSink) Record(dataset string, rec FlowRecord) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.err != nil {
		return
	}
	b := append(ws.line[:0], dataset...)
	b = append(b, '\t')
	b = rec.Client.AppendTo(b)
	b = append(b, '\t')
	b = rec.Server.AppendTo(b)
	b = append(b, '\t')
	b = strconv.AppendInt(b, rec.Start.Microseconds(), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, rec.End.Microseconds(), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, rec.Bytes, 10)
	b = append(b, '\t')
	b = append(b, rec.VideoID...)
	b = append(b, '\t')
	b = append(b, rec.Resolution...)
	b = append(b, '\n')
	ws.line = b
	_, ws.err = ws.w.Write(b)
}

// Flush drains the buffer and returns any write error.
func (ws *WriterSink) Flush() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.err != nil {
		return ws.err
	}
	return ws.w.Flush()
}

var _ Sink = (*WriterSink)(nil)

// ParseLine parses one TSV trace line produced by WriterSink.
func ParseLine(line string) (dataset string, rec FlowRecord, err error) {
	fields := strings.Split(strings.TrimRight(line, "\n"), "\t")
	if len(fields) != 8 {
		return "", FlowRecord{}, fmt.Errorf("capture: %d fields, want 8", len(fields))
	}
	client, err := ipnet.ParseAddr(fields[1])
	if err != nil {
		return "", FlowRecord{}, fmt.Errorf("capture: client: %w", err)
	}
	server, err := ipnet.ParseAddr(fields[2])
	if err != nil {
		return "", FlowRecord{}, fmt.Errorf("capture: server: %w", err)
	}
	startUs, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return "", FlowRecord{}, fmt.Errorf("capture: start: %w", err)
	}
	endUs, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil {
		return "", FlowRecord{}, fmt.Errorf("capture: end: %w", err)
	}
	bytes, err := strconv.ParseInt(fields[5], 10, 64)
	if err != nil {
		return "", FlowRecord{}, fmt.Errorf("capture: bytes: %w", err)
	}
	rec = FlowRecord{
		Client:     client,
		Server:     server,
		Start:      time.Duration(startUs) * time.Microsecond,
		End:        time.Duration(endUs) * time.Microsecond,
		Bytes:      bytes,
		VideoID:    fields[6],
		Resolution: fields[7],
	}
	return fields[0], rec, nil
}

// ReadTraces parses a full TSV stream into per-dataset record slices.
func ReadTraces(r io.Reader) (map[string][]FlowRecord, error) {
	out := make(map[string][]FlowRecord)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		ds, rec, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("capture: line %d: %w", lineNo, err)
		}
		out[ds] = append(out[ds], rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return out, nil
}

// TeeSink duplicates records to multiple sinks.
type TeeSink struct {
	sinks []Sink
}

// NewTeeSink combines sinks.
func NewTeeSink(sinks ...Sink) *TeeSink { return &TeeSink{sinks: sinks} }

// Record implements Sink.
func (t *TeeSink) Record(dataset string, rec FlowRecord) {
	for _, s := range t.sinks {
		s.Record(dataset, rec)
	}
}

var _ Sink = (*TeeSink)(nil)
