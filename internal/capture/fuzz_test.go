package capture

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

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

// FuzzTraceLineRoundTrip drives the text-trace serialization both
// ways: serialize an arbitrary record through WriterSink, require the
// line to equal the fmt reference byte for byte, parse it back with
// ParseLine, and require the parsed record to equal the original. The
// reference comparison holds for every input; the round trip skips
// inputs the TSV format cannot represent: tab/newline bytes inside
// string fields (they are field and record separators) and timestamps
// outside microsecond precision or the representable microsecond
// range.
func FuzzTraceLineRoundTrip(f *testing.F) {
	f.Add("US-Campus", uint32(0x80D20102), uint32(0xADC20509), int64(1_500_000), int64(61_500_000), int64(5_000_000), "dQw4w9WgXcQ", "360p")
	f.Add("EU2", uint32(0), uint32(0xFFFFFFFF), int64(0), int64(0), int64(0), "", "")
	f.Add("x", uint32(1), uint32(2), int64(-5), int64(7), int64(-9), "v", "1080p")
	f.Add("\xff\t", uint32(0x0A096364), uint32(0x09636409), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), "é\n", "\x00")
	f.Fuzz(func(t *testing.T, dataset string, client, server uint32, startUs, endUs, bytes int64, videoID, resolution string) {
		rec := FlowRecord{
			Client:     ipnet.Addr(client),
			Server:     ipnet.Addr(server),
			Start:      time.Duration(startUs) * time.Microsecond,
			End:        time.Duration(endUs) * time.Microsecond,
			Bytes:      bytes,
			VideoID:    videoID,
			Resolution: resolution,
		}
		var buf strings.Builder
		ws := NewWriterSink(&buf)
		ws.Record(dataset, rec)
		if err := ws.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if want := referenceLine(dataset, rec); buf.String() != want {
			t.Fatalf("encoder diverged from the fmt reference:\n got %q\nwant %q", buf.String(), want)
		}

		for _, s := range []string{dataset, videoID, resolution} {
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
// panic, and every line it accepts must re-serialize to an equivalent
// record (parse → write → parse is a fixed point).
func FuzzParseLine(f *testing.F) {
	f.Add("ds\t1.1.1.1\t2.2.2.2\t0\t1\t2\tv\t360p")
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
