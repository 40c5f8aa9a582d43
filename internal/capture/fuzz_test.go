package capture

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// referenceLineFormat is the fmt.Fprintf format WriterSink encoded
// each line with before its strconv encoder. It stays here as the
// encoder's reference: every line must equal referenceLine byte for
// byte.
const referenceLineFormat = "%s\t%s\t%s\t%d\t%d\t%d\t%s\t%s\n"

func referenceLine(dataset string, rec FlowRecord) string {
	return fmt.Sprintf(referenceLineFormat, dataset, rec.Client, rec.Server,
		rec.Start.Microseconds(), rec.End.Microseconds(), rec.Bytes, rec.VideoID, rec.Resolution)
}

// resolutions are the valid record resolutions, the ones a trace line
// may carry.
var resolutions = []content.Resolution{content.Res360p, content.Res480p, content.Res720p}

// FuzzTraceLineRoundTrip drives the text-trace serialization both
// ways over valid records: serialize a record through WriterSink,
// require the line to equal the fmt reference byte for byte, parse it
// back with ParseLine, and require the parsed record to equal the
// original. The fuzzer's videoID string fills the 11-byte VideoID
// (truncated or zero-padded) and res picks one of the valid
// resolutions, so every input is a valid record. The reference
// comparison holds for every input; the round trip skips inputs the
// TSV format cannot represent: tab/newline bytes inside the dataset or
// the VideoID (they are field and record separators) and timestamps
// outside microsecond precision or the representable microsecond
// range.
func FuzzTraceLineRoundTrip(f *testing.F) {
	f.Add("US-Campus", uint32(0x80D20102), uint32(0xADC20509), int64(1_500_000), int64(61_500_000), int64(5_000_000), "dQw4w9WgXcQ", uint8(0))
	f.Add("EU2", uint32(0), uint32(0xFFFFFFFF), int64(0), int64(0), int64(0), "", uint8(1))
	f.Add("x", uint32(1), uint32(2), int64(-5), int64(7), int64(-9), "v", uint8(2))
	f.Add("\xff\t", uint32(0x0A096364), uint32(0x09636409), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), "é\n", uint8(255))
	f.Fuzz(func(t *testing.T, dataset string, client, server uint32, startUs, endUs, bytes int64, videoID string, res uint8) {
		rec := FlowRecord{
			Client:     ipnet.Addr(client),
			Server:     ipnet.Addr(server),
			Start:      time.Duration(startUs) * time.Microsecond,
			End:        time.Duration(endUs) * time.Microsecond,
			Bytes:      bytes,
			Resolution: resolutions[int(res)%len(resolutions)],
		}
		copy(rec.VideoID[:], videoID)
		var buf strings.Builder
		ws := NewWriterSink(&buf)
		ws.Record(dataset, rec)
		if err := ws.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if want := referenceLine(dataset, rec); buf.String() != want {
			t.Fatalf("encoder diverged from the fmt reference:\n got %q\nwant %q", buf.String(), want)
		}

		for _, s := range []string{dataset, rec.VideoID.String()} {
			if strings.ContainsAny(s, "\t\n\r") {
				t.Skip("TSV cannot represent separators inside fields")
			}
		}
		// Stay where Duration(us)*Microsecond cannot overflow int64.
		const maxUs = int64(1) << 52
		if startUs > maxUs || startUs < -maxUs || endUs > maxUs || endUs < -maxUs {
			t.Skip("outside representable microsecond range")
		}
		line := strings.TrimRight(buf.String(), "\n")
		gotDS, got, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if gotDS != dataset {
			t.Errorf("dataset %q round-tripped to %q", dataset, gotDS)
		}
		if got != rec {
			t.Errorf("record round trip:\n got %+v\nwant %+v", got, rec)
		}
	})
}

// FuzzParseLine hammers the parser with arbitrary bytes: it must never
// panic, and every line it accepts is a valid record that re-serializes
// to an equivalent one (parse → write → parse is a fixed point).
func FuzzParseLine(f *testing.F) {
	f.Add("ds\t1.1.1.1\t2.2.2.2\t0\t1\t2\tdQw4w9WgXcQ\t360p")
	f.Add("garbage")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		ds, rec, err := ParseLine(line)
		if err != nil {
			return
		}
		var buf strings.Builder
		ws := NewWriterSink(&buf)
		ws.Record(ds, rec)
		if err := ws.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		ds2, rec2, err := ParseLine(strings.TrimRight(buf.String(), "\n"))
		if err != nil {
			t.Fatalf("re-parse of accepted line failed: %v", err)
		}
		if ds2 != ds || rec2 != rec {
			t.Errorf("parse/write/parse not a fixed point:\n got (%q, %+v)\nwant (%q, %+v)", ds2, rec2, ds, rec)
		}
	})
}

// FuzzRejectInvalidLine is the input contract's rejection property:
// a line whose other fields are valid parses if and only if its
// VideoID is exactly 11 bytes and its resolution is one of 360p, 480p
// and 720p, and an accepted line keeps both fields as written. Inputs
// holding a field or record separator are skipped: they change the
// line's shape, not the two fields.
func FuzzRejectInvalidLine(f *testing.F) {
	f.Add("dQw4w9WgXcQ", "360p")
	f.Add("dQw4w9WgXc", "360p")
	f.Add("dQw4w9WgXcQQ", "720p")
	f.Add("dQw4w9WgXcQ", "1080p")
	f.Add("", "")
	f.Add("dQw4w9WgXcQ", "unknown")
	f.Fuzz(func(t *testing.T, videoID, resolution string) {
		if strings.ContainsAny(videoID+resolution, "\t\n") {
			t.Skip("separators change the line's shape")
		}
		valid := len(videoID) == 11 &&
			(resolution == "360p" || resolution == "480p" || resolution == "720p")
		_, rec, err := ParseLine("ds\t1.1.1.1\t2.2.2.2\t0\t1\t2\t" + videoID + "\t" + resolution)
		if valid != (err == nil) {
			t.Fatalf("VideoID %q, resolution %q: valid=%v but ParseLine error %v", videoID, resolution, valid, err)
		}
		if valid && (rec.VideoID.String() != videoID || rec.Resolution.String() != resolution) {
			t.Errorf("accepted line changed its fields: VideoID %q, resolution %q", rec.VideoID, rec.Resolution)
		}
	})
}

// FuzzByStartMatchesStableSort checks the start-ordered scan against
// sort.SliceStable on fuzzed emission orders. Each byte of starts is
// one record, starting at the byte read as a signed number times step:
// repeated bytes are ties, a sorted input has lag 0, a descending one
// has the whole trace's span as its lag, and a large step wraps the
// starts across the int64 range, where the lag saturates. MapSource
// and MemSink measure the lag themselves. ByStart also runs at the lag
// plus extra milliseconds, as a source with a loose bound would, and
// extra = 0xFFFF stands for the unbounded lag.
func FuzzByStartMatchesStableSort(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 0, 5, 4, 4}, int64(time.Millisecond), uint16(0))
	f.Add([]byte{0, 0, 1, 1, 2, 3}, int64(time.Millisecond), uint16(0))
	reversed := make([]byte, 256)
	for i := range reversed {
		reversed[i] = byte(127 - i/2)
	}
	f.Add(reversed, int64(time.Second), uint16(0))
	f.Add([]byte{1, 0, 3, 2, 5, 4}, int64(time.Millisecond), uint16(1000))
	f.Add([]byte{0x7f, 0x80, 0, 0x7f, 0x80}, int64(1)<<62, uint16(0))
	f.Add([]byte{2, 1, 0, 1}, int64(time.Millisecond), uint16(math.MaxUint16))
	f.Fuzz(func(t *testing.T, starts []byte, step int64, extra uint16) {
		recs := make([]FlowRecord, len(starts))
		m := NewMemSink()
		for i, b := range starts {
			recs[i] = FlowRecord{Start: time.Duration(int64(int8(b)) * step), Bytes: int64(i)}
			m.Record("ds", recs[i])
		}
		want := stableByStart(recs)
		var lag StartLag
		lag.addRecords(recs)
		loose := time.Duration(math.MaxInt64)
		if e := time.Duration(extra) * time.Millisecond; extra != math.MaxUint16 && lag.Lag() <= loose-e {
			loose = lag.Lag() + e
		}
		for _, c := range []struct {
			name string
			it   Iterator
		}{
			{"MapSource.ScanByStart", MapSource{"ds": recs}.ScanByStart("ds")},
			{"MemSink.ScanByStart", m.ScanByStart("ds")},
			{fmt.Sprintf("ByStart at lag %v", loose), ByStart(IterSlice(recs), loose)},
		} {
			got, err := Collect(c.it)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s (lag %v) differs from the stable sort:\n got %v\nwant %v", c.name, lag.Lag(), got, want)
			}
		}
	})
}
