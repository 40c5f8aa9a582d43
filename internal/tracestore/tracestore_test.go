package tracestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// genRecords produces a deterministic pseudo-random record stream that
// looks like a capture: clustered servers, a small resolution set,
// mostly-increasing start times with jitter.
func genRecords(seed int64, n int) []capture.FlowRecord {
	g := rand.New(rand.NewSource(seed))
	out := make([]capture.FlowRecord, n)
	base := time.Duration(0)
	for i := range out {
		base += time.Duration(g.Intn(2000)) * time.Millisecond
		start := base - time.Duration(g.Intn(5000))*time.Millisecond
		if start < 0 {
			start = 0
		}
		out[i] = capture.FlowRecord{
			Client:     ipnet.Addr(0x0A000000 + uint32(g.Intn(1<<16))),
			Server:     ipnet.Addr(0xADC20000 + uint32(g.Intn(64))),
			Start:      start,
			End:        start + time.Duration(g.Intn(120_000))*time.Millisecond,
			Bytes:      int64(g.Intn(10_000_000)),
			VideoID:    capture.VideoID([]byte(fmt.Sprintf("vid%08d", g.Intn(500)))),
			Resolution: []content.Resolution{content.Res360p, content.Res360p, content.Res480p, content.Res720p}[g.Intn(4)],
		}
	}
	return out
}

// writeStore spills recs into per-dataset shards and closes the store.
func writeStore(t *testing.T, dir string, segRecords int, byDS map[string][]capture.FlowRecord) {
	t.Helper()
	w, err := NewWriter(dir, Options{SegmentRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	for ds, recs := range byDS {
		for _, r := range recs {
			w.Record(ds, r)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// expectStored reorders recs the way the store does: chunked into
// spill-sized segments, each stable-sorted by start time.
func expectStored(recs []capture.FlowRecord, segRecords int) []capture.FlowRecord {
	out := make([]capture.FlowRecord, len(recs))
	copy(out, recs)
	for off := 0; off < len(out); off += segRecords {
		end := off + segRecords
		if end > len(out) {
			end = len(out)
		}
		seg := out[off:end]
		sort.SliceStable(seg, func(i, j int) bool { return seg[i].Start < seg[j].Start })
	}
	return out
}

func TestSegmentRoundTrip(t *testing.T) {
	recs := genRecords(1, 1000)
	want := expectStored(recs, len(recs))
	header, payload := encodeSegment(recs)
	h, err := parseSegHeader(header)
	if err != nil {
		t.Fatal(err)
	}
	if int(h.count) != len(recs) {
		t.Fatalf("count = %d", h.count)
	}
	if h.minStart != want[0].Start || h.maxStart != want[len(want)-1].Start {
		t.Errorf("min/max start %v/%v, want %v/%v", h.minStart, h.maxStart, want[0].Start, want[len(want)-1].Start)
	}
	got, err := decodeSegment(payload, int(h.count))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestSegmentRoundTripExtremes(t *testing.T) {
	recs := []capture.FlowRecord{
		{Start: -5 * time.Second, End: -6 * time.Second, Bytes: -42, Resolution: content.Res360p},
		{Client: 0xFFFFFFFF, Server: 0xFFFFFFFF, Start: 1<<62 - 1, End: 1<<62 - 1, Bytes: 1<<63 - 1,
			VideoID: capture.VideoID([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")), Resolution: content.Res720p},
		{Start: 0, End: 0, Resolution: content.Res480p},
	}
	header, payload := encodeSegment(recs)
	h, err := parseSegHeader(header)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSegment(payload, int(h.count))
	if err != nil {
		t.Fatal(err)
	}
	want := expectStored(recs, len(recs))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const segRecords = 128
	byDS := map[string][]capture.FlowRecord{
		"US-Campus": genRecords(2, 1000), // 7 full segments + partial
		"EU2":       genRecords(3, 128),  // exactly one segment
		"tiny":      genRecords(4, 5),    // partial only
	}
	writeStore(t, dir, segRecords, byDS)

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := r.Datasets()
	if len(names) != 3 || names[0] != "EU2" || names[1] != "US-Campus" || names[2] != "tiny" {
		t.Fatalf("Datasets = %v", names)
	}
	if r.TotalRecords() != 1133 {
		t.Errorf("TotalRecords = %d", r.TotalRecords())
	}
	for ds, recs := range byDS {
		if r.Truncated(ds) {
			t.Errorf("%s reported truncated", ds)
		}
		if got := r.Records(ds); got != int64(len(recs)) {
			t.Errorf("%s Records = %d, want %d", ds, got, len(recs))
		}
		got, err := capture.Collect(r.Iter(ds))
		if err != nil {
			t.Fatal(err)
		}
		want := expectStored(recs, segRecords)
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", ds, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s record %d: got %+v want %+v", ds, i, got[i], want[i])
			}
		}
	}
	if segs := r.Segments("US-Campus"); segs != 8 {
		t.Errorf("US-Campus segments = %d, want 8", segs)
	}
	if recs, err := capture.Collect(r.Iter("missing")); err != nil || recs != nil {
		t.Errorf("missing dataset: %v, %v", recs, err)
	}
	if r.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after full drains", r.BufferedBytes())
	}
}

func TestFunkyDatasetNames(t *testing.T) {
	dir := t.TempDir()
	names := []string{"a/b", "ü — spaces & sláshes", "plain", ""}
	byDS := make(map[string][]capture.FlowRecord)
	for i, name := range names {
		byDS[name] = genRecords(int64(10+i), 10)
	}
	writeStore(t, dir, 4, byDS)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets()) != len(names) {
		t.Fatalf("Datasets = %v", r.Datasets())
	}
	for _, name := range names {
		if r.Records(name) != 10 {
			t.Errorf("dataset %q: %d records", name, r.Records(name))
		}
	}
}

// TestScanByStartOrdered checks the store's start-ordered scan against
// the stable sort of the records in emission order, record for record:
// the segments overlap in time, so the scan runs through the reorder,
// and equal starts must come out in emission order, as they do from
// an in-memory source.
func TestScanByStartOrdered(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(5, 3000)
	writeStore(t, dir, 256, map[string][]capture.FlowRecord{"ds": recs})
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lag := r.shards["ds"].lag; lag == 0 {
		t.Fatal("the segments do not overlap, so the scan would not reorder")
	}
	got, err := capture.Collect(r.ScanByStart("ds"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]capture.FlowRecord, len(recs))
	copy(want, recs)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Start < want[j].Start })
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if r.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after drain", r.BufferedBytes())
	}
}

// TestHeaderStartRangeChecked corrupts a segment header's start range,
// which the payload CRC does not cover and the shard's lag rests on.
// Setting segment 1's minStart to the shard's last maxStart shrinks the
// lag below the true one, so without the check ScanByStart would yield
// every record, one pair out of order, with no error. Both scans must
// end in an error instead, and so must a maxStart that disagrees.
func TestHeaderStartRangeChecked(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 256, map[string][]capture.FlowRecord{"ds": genRecords(5, 3000)})
	path := filepath.Join(dir, shardFileName("ds"))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Segment header offsets, walked as indexShard walks them.
	var hdrs []int
	for off := len(shardMagic) + 1 + len("ds"); off < len(clean); {
		h, err := parseSegHeader(clean[off:])
		if err != nil {
			t.Fatal(err)
		}
		hdrs = append(hdrs, off)
		off += segHeaderSize + int(h.payloadLen)
	}
	if len(hdrs) < 3 {
		t.Fatalf("want at least 3 segments, got %d", len(hdrs))
	}
	const minStartOff, maxStartOff = 16, 24
	lastMax := binary.LittleEndian.Uint64(clean[hdrs[len(hdrs)-1]+maxStartOff:])
	for _, c := range []struct {
		name  string
		field int
		value uint64
	}{
		{"segment 1 minStart = last maxStart", hdrs[1] + minStartOff, lastMax},
		{"segment 0 maxStart = last maxStart", hdrs[0] + maxStartOff, lastMax},
	} {
		data := bytes.Clone(clean)
		binary.LittleEndian.PutUint64(data[c.field:], c.value)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		for scan, it := range map[string]capture.Iterator{"Iter": r.Iter("ds"), "ScanByStart": r.ScanByStart("ds")} {
			if _, err := capture.Collect(it); err == nil {
				t.Errorf("%s: %s ended without an error", c.name, scan)
			}
		}
		if r.BufferedBytes() != 0 {
			t.Errorf("%s: BufferedBytes = %d after the failed scans", c.name, r.BufferedBytes())
		}
	}
}

// TestDecodeRejectsUnsortedStarts crafts a two-record payload whose
// start delta wraps the second start below the first. The CRC would
// match such a payload, so the decoder itself must reject it; the same
// payload with a zero delta decodes.
func TestDecodeRejectsUnsortedStarts(t *testing.T) {
	craft := func(delta uint64) []byte {
		var p []byte
		p = binary.AppendVarint(p, int64(10*time.Second)) // first start
		p = binary.AppendUvarint(p, delta)                // second start
		for i := 0; i < 2; i++ {
			p = binary.AppendVarint(p, int64(time.Second)) // durations
		}
		for i := 0; i < 2; i++ {
			p = binary.AppendVarint(p, 1000) // bytes
		}
		for i := 0; i < 2; i++ {
			p = binary.AppendUvarint(p, 0x0A000001) // clients
		}
		p = binary.AppendUvarint(p, 1) // server dictionary, then ids
		p = binary.AppendUvarint(p, 0xADC20001)
		p = append(p, 0, 0)
		for _, entry := range []string{"dQw4w9WgXcQ", "360p"} {
			p = binary.AppendUvarint(p, 1)
			p = binary.AppendUvarint(p, uint64(len(entry)))
			p = append(p, entry...)
			p = append(p, 0, 0)
		}
		return p
	}
	if _, err := decodeSegment(craft(0), 2); err != nil {
		t.Fatalf("sorted payload: %v", err)
	}
	if recs, err := decodeSegment(craft(math.MaxUint64), 2); err == nil {
		t.Errorf("a delta of -1 decoded, starts %v then %v", recs[0].Start, recs[1].Start)
	}
}

func TestCrashTruncation(t *testing.T) {
	dir := t.TempDir()
	const segRecords = 100
	recs := genRecords(8, 950) // 9 full segments + partial tail
	writeStore(t, dir, segRecords, map[string][]capture.FlowRecord{"ds": recs})
	path := filepath.Join(dir, shardFileName("ds"))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop increasing amounts off the tail; every prefix must recover
	// all segments that remain complete, with no error.
	for _, chop := range []int64{1, 17, segHeaderSize - 1, segHeaderSize + 5, 200, 1000} {
		trimmed := filepath.Join(t.TempDir(), "trunc.shard")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if chop >= info.Size() {
			t.Fatalf("chop %d exceeds file size %d", chop, info.Size())
		}
		if err := os.WriteFile(trimmed, data[:info.Size()-chop], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(filepath.Dir(trimmed))
		if err != nil {
			t.Fatalf("chop %d: %v", chop, err)
		}
		if !r.Truncated("ds") {
			t.Errorf("chop %d: truncation not reported", chop)
		}
		got, err := capture.Collect(r.Iter("ds"))
		if err != nil {
			t.Fatalf("chop %d: %v", chop, err)
		}
		if len(got)%segRecords != 0 || len(got) > 900 {
			t.Errorf("chop %d: recovered %d records, want a complete-segment multiple <= 900", chop, len(got))
		}
		want := expectStored(recs, segRecords)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chop %d: record %d corrupted", chop, i)
			}
		}
	}
}

// TestTruncatedShardHeaderSkipped covers a crash between shard-file
// creation and the first header write: the artifact must be skipped,
// leaving every intact shard readable.
func TestTruncatedShardHeaderSkipped(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 16, map[string][]capture.FlowRecord{"good": genRecords(30, 40)})
	for i, raw := range [][]byte{
		{},                               // zero-byte file
		[]byte(shardMagic[:3]),           // crash mid-magic
		[]byte(shardMagic),               // crash before the name length
		append([]byte(shardMagic), 0x10), // name length present, name missing
	} {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("crash%d.shard", i)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := r.Datasets(); len(names) != 1 || names[0] != "good" {
		t.Errorf("Datasets = %v, want [good]", names)
	}
	if r.Records("good") != 40 {
		t.Errorf("good shard lost records: %d", r.Records("good"))
	}
}

// TestNonShardFileRejected pins the distinction: a file that is not a
// crash artifact (wrong magic) is an error, not a silent skip.
func TestNonShardFileRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "alien.shard"), []byte("NOTASHARDFILE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(dir); err == nil {
		t.Error("foreign file must be rejected")
	}
}

// TestCorruptCountRejected flips the count field of a segment header:
// the reader must report corruption instead of attempting a giant
// allocation.
func TestCorruptCountRejected(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 50, map[string][]capture.FlowRecord{"ds": genRecords(31, 100)})
	path := filepath.Join(dir, shardFileName("ds"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First segment header sits after magic + uvarint(len("ds")) + "ds";
	// count is bytes 4-7 of the header.
	countOff := len(shardMagic) + 1 + 2 + 4
	data[countOff+3] = 0x7F // count becomes ~2^31
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(dir); err == nil {
		t.Error("corrupt segment count must be rejected at open")
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 50, map[string][]capture.FlowRecord{"ds": genRecords(9, 200)})
	path := filepath.Join(dir, shardFileName("ds"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the first segment's payload.
	data[len(shardMagic)+10+segHeaderSize+8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capture.Collect(r.Iter("ds")); err == nil {
		t.Error("corrupt payload must surface an error")
	}
}

// TestWriterConcurrentDatasets records four datasets from one
// goroutine, one record of each in turn, so every shard spills
// mid-stream between the other shards' records. Each dataset must read
// back complete, in the store's order, in the expected segments.
func TestWriterConcurrentDatasets(t *testing.T) {
	dir := t.TempDir()
	const segRecords = 64
	w, err := NewWriter(dir, Options{SegmentRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	const datasets, perDataset = 4, 1000
	want := make(map[string][]capture.FlowRecord, datasets)
	for k := 0; k < datasets; k++ {
		want[fmt.Sprintf("ds-%d", k)] = genRecords(int64(100+k), perDataset)
	}
	for i := 0; i < perDataset; i++ {
		for k := 0; k < datasets; k++ {
			ds := fmt.Sprintf("ds-%d", k)
			w.Record(ds, want[ds][i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRecords() != datasets*perDataset {
		t.Errorf("reader TotalRecords = %d, want %d", r.TotalRecords(), datasets*perDataset)
	}
	if got := r.Datasets(); len(got) != datasets {
		t.Fatalf("Datasets = %v", got)
	}
	for ds, recs := range want {
		if segs := r.Segments(ds); segs != 16 {
			t.Errorf("%s: %d segments, want 15 full and 1 partial", ds, segs)
		}
		got, err := capture.Collect(r.Iter(ds))
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		stored := expectStored(recs, segRecords)
		if len(got) != len(stored) {
			t.Fatalf("%s: %d records, want %d", ds, len(got), len(stored))
		}
		for i := range stored {
			if got[i] != stored[i] {
				t.Fatalf("%s record %d: got %+v want %+v", ds, i, got[i], stored[i])
			}
		}
	}
}

func TestWriterReplacesStaleStore(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 16, map[string][]capture.FlowRecord{"old-a": genRecords(11, 50), "old-b": genRecords(12, 50)})
	writeStore(t, dir, 16, map[string][]capture.FlowRecord{"new": genRecords(13, 20)})
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := r.Datasets(); len(names) != 1 || names[0] != "new" {
		t.Errorf("stale shards survived: %v", names)
	}
}

// TestRecordAfterCloseIsSafe pins Close as the end of a writer: later
// records, into a new dataset or into one whose shard is open, are
// dropped without creating files, moving the record gauge or reaching
// the store, and a second Close has nothing left to fail on.
func TestRecordAfterCloseIsSafe(t *testing.T) {
	dir := t.TempDir()
	const segRecords = 16
	w, err := NewWriter(dir, Options{SegmentRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	w.Instrument(reg)
	w.Record("ds", genRecords(14, 1)[0])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Record("other", genRecords(15, 1)[0]) // must not panic or create files
	for _, rec := range genRecords(16, 2*segRecords+1) {
		w.Record("ds", rec) // enough to spill twice, were it accepted
	}
	if got := reg.Snapshot().Gauges["store.write.records"]; got != 1 {
		t.Errorf("store.write.records = %v after Close, want 1", got)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets()) != 1 {
		t.Errorf("Datasets = %v", r.Datasets())
	}
	if r.TotalRecords() != 1 {
		t.Errorf("store holds %d records, want 1", r.TotalRecords())
	}
}

// TestScanBoundedMemory is the paper-scale acceptance check: scanning
// over a million records across five shards must never buffer more
// than one decoded segment per shard (the reader's gauge is exact, so
// this is deterministic, not a ReadMemStats guess).
func TestScanBoundedMemory(t *testing.T) {
	perDS := 210_000
	if testing.Short() {
		perDS = 30_000
	}
	const segRecords = 4096
	dir := t.TempDir()
	w, err := NewWriter(dir, Options{SegmentRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	datasets := []string{"US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH", "EU2"}
	for i, ds := range datasets {
		for _, r := range genRecords(int64(20+i), perDS) {
			w.Record(ds, r)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	totals := make([]int64, len(datasets))
	errs := make([]error, len(datasets))
	for i, ds := range datasets {
		i, ds := i, ds
		wg.Add(1)
		go func() {
			defer wg.Done()
			it := r.Iter(ds)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				totals[i]++
			}
			errs[i] = it.Err()
		}()
	}
	wg.Wait()
	var scanned int64
	for i := range totals {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		scanned += totals[i]
	}
	if !testing.Short() && scanned < 1_000_000 {
		t.Fatalf("scanned %d records, want >= 1M", scanned)
	}
	// One decoded segment per shard: segRecords records.
	bound := int64(len(datasets)) * segRecords * flowRecordSize
	if peak := r.PeakBufferedBytes(); peak == 0 || peak > bound {
		t.Errorf("peak buffered %d bytes, want (0, %d]", peak, bound)
	}
	if r.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after drain", r.BufferedBytes())
	}
}
