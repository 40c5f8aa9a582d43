package capture

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

func sampleRecord() FlowRecord {
	return FlowRecord{
		Client:     ipnet.MustParseAddr("128.210.1.2"),
		Server:     ipnet.MustParseAddr("173.194.5.9"),
		Start:      1500 * time.Millisecond,
		End:        61500 * time.Millisecond,
		Bytes:      5_000_000,
		VideoID:    "dQw4w9WgXcQ",
		Resolution: "360p",
	}
}

func TestFlowRecordDuration(t *testing.T) {
	if got := sampleRecord().Duration(); got != time.Minute {
		t.Errorf("Duration = %v", got)
	}
}

func TestMemSink(t *testing.T) {
	m := NewMemSink()
	m.Record("ds1", sampleRecord())
	m.Record("ds1", sampleRecord())
	m.Record("ds2", sampleRecord())
	if len(m.Trace("ds1")) != 2 || len(m.Trace("ds2")) != 1 {
		t.Errorf("trace lengths wrong")
	}
	if m.TotalRecords() != 3 {
		t.Errorf("TotalRecords = %d", m.TotalRecords())
	}
	if len(m.Datasets()) != 2 {
		t.Errorf("Datasets = %v", m.Datasets())
	}
	if m.Trace("missing") != nil {
		t.Error("missing dataset must return nil")
	}
}

// TestMemSinkConcurrentRecord exercises the sink from many goroutines,
// with a reader iterating alongside; meaningful under -race, and the
// totals must still add up.
func TestMemSinkConcurrentRecord(t *testing.T) {
	m := NewMemSink()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			ds := "ds1"
			if w%2 == 1 {
				ds = "ds2"
			}
			for i := 0; i < perWorker; i++ {
				m.Record(ds, sampleRecord())
			}
		}()
	}
	// A reader iterating while the writers record sees a snapshot that
	// only grows.
	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := 0
		for seen < workers/2*perWorker {
			recs, err := Collect(m.Iter("ds1"))
			if err != nil || len(recs) < seen {
				t.Errorf("snapshot of %d records after one of %d (err %v)", len(recs), seen, err)
				return
			}
			seen = len(recs)
		}
	}()
	wg.Wait()
	<-done
	if got := m.TotalRecords(); got != workers*perWorker {
		t.Errorf("TotalRecords = %d, want %d", got, workers*perWorker)
	}
	if len(m.Trace("ds1")) != workers/2*perWorker || len(m.Trace("ds2")) != workers/2*perWorker {
		t.Errorf("per-dataset counts wrong: %d / %d", len(m.Trace("ds1")), len(m.Trace("ds2")))
	}
}

// TestMemSinkTraceReturnsCopy pins the Trace contract: mutating the
// returned slice must not corrupt the sink, and Iter must keep
// streaming the original records.
func TestMemSinkTraceReturnsCopy(t *testing.T) {
	m := NewMemSink()
	m.Record("ds", sampleRecord())
	got := m.Trace("ds")
	got[0].Bytes = -1
	got[0].VideoID = "corrupted"
	if again := m.Trace("ds"); again[0] != sampleRecord() {
		t.Errorf("sink corrupted through Trace copy: %+v", again[0])
	}
	if recs, _ := Collect(m.Iter("ds")); len(recs) != 1 || recs[0] != sampleRecord() {
		t.Errorf("sink corrupted, Iter streams %+v", recs)
	}
}

// TestMemSinkChunkBoundaries fills a dataset to either side of the
// chunk boundaries: Trace, Iter and TotalRecords must agree and keep
// emission order, before and after Trim, and Record must keep working
// after Trim.
func TestMemSinkChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, chunkRecords - 1, chunkRecords, chunkRecords + 1, 2*chunkRecords + 1} {
		m := NewMemSink()
		rec := func(i int) FlowRecord {
			r := sampleRecord()
			r.Bytes = int64(i)
			return r
		}
		for i := 0; i < n; i++ {
			m.Record("ds", rec(i))
		}
		check := func(stage string, want int) {
			t.Helper()
			if got := m.TotalRecords(); got != want {
				t.Errorf("n=%d %s: TotalRecords = %d, want %d", n, stage, got, want)
			}
			trace := m.Trace("ds")
			iterated, err := Collect(m.Iter("ds"))
			if err != nil {
				t.Fatalf("n=%d %s: Iter: %v", n, stage, err)
			}
			if len(trace) != want || len(iterated) != want {
				t.Fatalf("n=%d %s: Trace has %d records, Iter %d, want %d", n, stage, len(trace), len(iterated), want)
			}
			for i := range trace {
				if trace[i] != rec(i) || iterated[i] != rec(i) {
					t.Fatalf("n=%d %s: record %d out of emission order: Trace %d, Iter %d", n, stage, i, trace[i].Bytes, iterated[i].Bytes)
				}
			}
		}
		check("recorded", n)
		m.Trim()
		check("trimmed", n)
		for i := n; i < n+chunkRecords+1; i++ {
			m.Record("ds", rec(i))
		}
		check("recorded after trim", n+chunkRecords+1)
	}
}

func TestMemSinkDatasetsSorted(t *testing.T) {
	m := NewMemSink()
	for _, ds := range []string{"zz", "aa", "mm"} {
		m.Record(ds, sampleRecord())
	}
	got := m.Datasets()
	want := []string{"aa", "mm", "zz"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Datasets = %v, want %v", got, want)
		}
	}
}

func TestIterSliceAndCollect(t *testing.T) {
	recs := []FlowRecord{sampleRecord(), sampleRecord()}
	recs[1].Bytes = 42
	got, err := Collect(IterSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Errorf("Collect = %+v", got)
	}
	it := IterSlice(nil)
	if _, ok := it.Next(); ok {
		t.Error("empty iterator must be exhausted")
	}
	if it.Err() != nil {
		t.Errorf("Err = %v", it.Err())
	}
}

func TestMapSource(t *testing.T) {
	src := MapSource{"b": {sampleRecord()}, "a": {sampleRecord(), sampleRecord()}}
	names := src.Datasets()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Datasets = %v", names)
	}
	recs, err := Collect(src.Iter("a"))
	if err != nil || len(recs) != 2 {
		t.Errorf("Iter(a): %d records, err %v", len(recs), err)
	}
	if recs, _ := Collect(src.Iter("missing")); recs != nil {
		t.Errorf("missing dataset iterated %d records", len(recs))
	}
}

func TestMemSinkIter(t *testing.T) {
	m := NewMemSink()
	m.Record("ds", sampleRecord())
	recs, err := Collect(m.Iter("ds"))
	if err != nil || len(recs) != 1 || recs[0] != sampleRecord() {
		t.Errorf("Iter: %+v, err %v", recs, err)
	}
}

func TestWriterSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ws := NewWriterSink(&buf)
	rec := sampleRecord()
	ws.Record("US-Campus", rec)
	ws.Record("EU2", rec)
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	traces, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces["US-Campus"]) != 1 || len(traces["EU2"]) != 1 {
		t.Fatalf("traces = %v", traces)
	}
	got := traces["US-Campus"][0]
	if got != rec {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

func TestWriterSinkStickyError(t *testing.T) {
	ws := NewWriterSink(failWriter{})
	for i := 0; i < 100000; i++ {
		ws.Record("x", sampleRecord())
	}
	if err := ws.Flush(); err == nil {
		t.Error("Flush must surface the write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "boom" }

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"",
		"too\tfew\tfields",
		"ds\tnot-an-ip\t1.1.1.1\t0\t1\t2\tv\t360p",
		"ds\t1.1.1.1\tnot-an-ip\t0\t1\t2\tv\t360p",
		"ds\t1.1.1.1\t2.2.2.2\tx\t1\t2\tv\t360p",
		"ds\t1.1.1.1\t2.2.2.2\t0\tx\t2\tv\t360p",
		"ds\t1.1.1.1\t2.2.2.2\t0\t1\tx\tv\t360p",
	}
	for _, line := range bad {
		if _, _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) must fail", line)
		}
	}
}

func TestReadTracesSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	ws := NewWriterSink(&buf)
	ws.Record("a", sampleRecord())
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	in := buf.String() + "\n\n"
	traces, err := ReadTraces(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces["a"]) != 1 {
		t.Errorf("records = %d", len(traces["a"]))
	}
}

func TestReadTracesReportsLineNumber(t *testing.T) {
	in := "ds\t1.1.1.1\t2.2.2.2\t0\t1\t2\tv\t360p\ngarbage line\n"
	if _, err := ReadTraces(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-numbered error, got %v", err)
	}
}

func TestTeeSink(t *testing.T) {
	a, b := NewMemSink(), NewMemSink()
	tee := NewTeeSink(a, b)
	tee.Record("x", sampleRecord())
	if a.TotalRecords() != 1 || b.TotalRecords() != 1 {
		t.Error("tee did not duplicate")
	}
}

func TestSerializationRoundTripProperty(t *testing.T) {
	f := func(client, server uint32, startUs, durUs uint32, bytes uint32, vidRaw uint16) bool {
		rec := FlowRecord{
			Client:     ipnet.Addr(client),
			Server:     ipnet.Addr(server),
			Start:      time.Duration(startUs) * time.Microsecond,
			End:        time.Duration(startUs+durUs) * time.Microsecond,
			Bytes:      int64(bytes),
			VideoID:    "vid" + string(rune('A'+vidRaw%26)),
			Resolution: "480p",
		}
		var buf strings.Builder
		ws := NewWriterSink(&buf)
		ws.Record("p", rec)
		if err := ws.Flush(); err != nil {
			return false
		}
		ds, got, err := ParseLine(strings.TrimRight(buf.String(), "\n"))
		return err == nil && ds == "p" && got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
