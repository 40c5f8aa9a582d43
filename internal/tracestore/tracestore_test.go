package tracestore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
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
			VideoID:    fmt.Sprintf("vid%08d", g.Intn(500)),
			Resolution: []string{"240p", "360p", "480p", "720p"}[g.Intn(4)],
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
		{Start: -5 * time.Second, End: -6 * time.Second, Bytes: -42, VideoID: "", Resolution: ""},
		{Client: 0xFFFFFFFF, Server: 0xFFFFFFFF, Start: 1<<62 - 1, End: 1<<62 - 1, Bytes: 1<<63 - 1, VideoID: "x", Resolution: "y"},
		{Start: 0, End: 0},
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

func TestScanByStartOrdered(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(5, 3000)
	writeStore(t, dir, 256, map[string][]capture.FlowRecord{"ds": recs})
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := capture.Collect(r.ScanByStart("ds"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start < got[i-1].Start {
			t.Fatalf("order violated at %d: %v after %v", i, got[i].Start, got[i-1].Start)
		}
	}
	// Same multiset: compare against a fully sorted copy.
	want := make([]capture.FlowRecord, len(recs))
	copy(want, recs)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Start < want[j].Start })
	sortTies(want)
	sortTies(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch after normalization", i)
		}
	}
	if r.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after drain", r.BufferedBytes())
	}
}

// sortTies canonicalizes runs of equal start times so two start-ordered
// streams can be compared record by record.
func sortTies(recs []capture.FlowRecord) {
	i := 0
	for i < len(recs) {
		j := i + 1
		for j < len(recs) && recs[j].Start == recs[i].Start {
			j++
		}
		run := recs[i:j]
		sort.Slice(run, func(a, b int) bool {
			if run[a].End != run[b].End {
				return run[a].End < run[b].End
			}
			if run[a].Client != run[b].Client {
				return run[a].Client < run[b].Client
			}
			return run[a].Bytes < run[b].Bytes
		})
		i = j
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

func TestWriterConcurrentDatasets(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, Options{SegmentRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		k := k
		go func() {
			defer wg.Done()
			ds := fmt.Sprintf("ds-%d", k%4) // two goroutines share each shard
			recs := genRecords(int64(100+k), perWorker)
			for _, r := range recs {
				w.Record(ds, r)
			}
		}()
	}
	wg.Wait()
	if w.TotalRecords() != workers*perWorker {
		t.Errorf("TotalRecords = %d", w.TotalRecords())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRecords() != workers*perWorker {
		t.Errorf("reader TotalRecords = %d", r.TotalRecords())
	}
	for _, ds := range r.Datasets() {
		if r.Records(ds) != 2*perWorker {
			t.Errorf("%s = %d records", ds, r.Records(ds))
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

func TestRecordAfterCloseIsSafe(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, Options{SegmentRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	w.Record("ds", genRecords(14, 1)[0])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Record("other", genRecords(15, 1)[0]) // must not panic or create files
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets()) != 1 {
		t.Errorf("Datasets = %v", r.Datasets())
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
	// One decoded segment per shard: segRecords records plus the
	// per-segment dictionary strings (a generous 64 KiB allowance).
	perSegmentBound := int64(segRecords*flowRecordSize + 64*1024)
	bound := int64(len(datasets)) * perSegmentBound
	if peak := r.PeakBufferedBytes(); peak == 0 || peak > bound {
		t.Errorf("peak buffered %d bytes, want (0, %d]", peak, bound)
	}
	if r.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after drain", r.BufferedBytes())
	}
}
