package tracestore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// encodeSegment encodes recs through a fresh encoder and splits the
// segment into its header and payload.
func encodeSegment(recs []capture.FlowRecord) (header, payload []byte) {
	var e segmentEncoder
	seg := e.encode(recs)
	return seg[:segHeaderSize], seg[segHeaderSize:]
}

// decodeSegment decodes one segment payload through a fresh buffer,
// so the records stay valid after the call.
func decodeSegment(payload []byte, count int) ([]capture.FlowRecord, error) {
	b := decodeBuf{payload: payload}
	recs, _, err := b.decode(count)
	return recs, err
}

// fuzzRecords builds a small realistic record batch whose encoding
// seeds the fuzz corpora with genuine segment bytes.
func fuzzRecords(n int) []capture.FlowRecord {
	recs := make([]capture.FlowRecord, n)
	for i := range recs {
		recs[i] = capture.FlowRecord{
			Client:     ipnet.Addr(0x80D20000 + uint32(i)),
			Server:     ipnet.Addr(0x4A7D0000 + uint32(i%7)),
			Start:      time.Duration(i) * 13 * time.Millisecond,
			End:        time.Duration(i)*13*time.Millisecond + 40*time.Second,
			Bytes:      1000 + int64(i)*7919,
			VideoID:    capture.VideoID([]byte(fmt.Sprintf("vid%08d", i%5))),
			Resolution: resolutions[i%len(resolutions)],
		}
	}
	return recs
}

// FuzzDecodeSegment hammers the segment payload decoder: whatever the
// bytes and the claimed record count, it must return an error or valid
// records — never panic, and never allocate proportionally to a
// corrupted (huge) count or dictionary length rather than to the
// actual payload. Decoded records are valid ones, so they round-trip:
// encoding them again and decoding the result gives them back.
func FuzzDecodeSegment(f *testing.F) {
	// Seed with real encoded payloads at a few sizes, plus their
	// corruptions: flipped dictionary length, truncation, bit flips.
	for _, n := range []int{1, 5, 64} {
		_, payload := encodeSegment(fuzzRecords(n))
		f.Add(payload, n)
		f.Add(payload, n+1)                // count off by one
		f.Add(payload, 1<<30)              // absurd count
		f.Add(payload[:len(payload)/2], n) // truncated payload
		if len(payload) > 10 {
			mut := bytes.Clone(payload)
			mut[len(mut)/3] ^= 0xFF // corrupt a column mid-stream
			f.Add(mut, n)
		}
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0xFF}, 1)

	f.Fuzz(func(t *testing.T, payload []byte, count int) {
		recs, err := decodeSegment(payload, count)
		if err != nil {
			return
		}
		// On success the decode must be internally consistent: exactly
		// count records, and bounded by what the payload can encode
		// (>= 1 byte per record in the start column alone).
		if len(recs) != count {
			t.Fatalf("decoded %d records, header said %d", len(recs), count)
		}
		if count > len(payload) {
			t.Fatalf("decoded %d records from a %d-byte payload", count, len(payload))
		}
		if count == 0 {
			return
		}
		// The decoder rejects starts out of order, so the records are
		// already in the order the encoder's stable sort keeps.
		if !slices.IsSortedFunc(recs, func(a, b capture.FlowRecord) int { return cmp.Compare(a.Start, b.Start) }) {
			t.Fatalf("decoded starts out of order: %+v", recs)
		}
		want := slices.Clone(recs)
		_, again := encodeSegment(slices.Clone(want))
		got, err := decodeSegment(again, count)
		if err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", got, want)
		}
	})
}

// craftPayload lays out a one-record payload column by column, as
// encode does, but writes the VideoID and resolution dictionary
// entries verbatim, so it can hold entries encode never writes.
func craftPayload(videoID, resolution string) []byte {
	var p []byte
	p = binary.AppendVarint(p, int64(time.Second)) // start
	p = binary.AppendVarint(p, int64(time.Second)) // duration
	p = binary.AppendVarint(p, 1000)               // bytes
	p = binary.AppendUvarint(p, 0x0A000001)        // client
	p = binary.AppendUvarint(p, 1)                 // server dictionary: one entry
	p = binary.AppendUvarint(p, 0xADC20001)
	p = binary.AppendUvarint(p, 0) // server id
	for _, entry := range []string{videoID, resolution} {
		p = binary.AppendUvarint(p, 1) // one entry
		p = binary.AppendUvarint(p, uint64(len(entry)))
		p = append(p, entry...)
		p = binary.AppendUvarint(p, 0) // id
	}
	return p
}

// FuzzRejectInvalidSegment is the decoder's half of the input
// contract's rejection property (capture's FuzzRejectInvalidLine is
// the other): a segment decodes if and only if its VideoID entries are
// exactly 11 bytes and its resolution entries are 360p, 480p or 720p.
// For a valid pair the crafted payload must equal what the encoder
// writes for the decoded record, so the crafted layout is the real one.
func FuzzRejectInvalidSegment(f *testing.F) {
	f.Add("dQw4w9WgXcQ", "360p")
	f.Add("dQw4w9WgXc", "360p")
	f.Add("dQw4w9WgXcQQ", "720p")
	f.Add("dQw4w9WgXcQ", "1080p")
	f.Add("", "")
	f.Add("dQw4w9WgXcQ", "unknown")
	f.Fuzz(func(t *testing.T, videoID, resolution string) {
		valid := len(videoID) == 11 &&
			(resolution == "360p" || resolution == "480p" || resolution == "720p")
		payload := craftPayload(videoID, resolution)
		recs, err := decodeSegment(payload, 1)
		if valid != (err == nil) {
			t.Fatalf("VideoID %q, resolution %q: valid=%v but decode error %v", videoID, resolution, valid, err)
		}
		if !valid {
			return
		}
		if recs[0].VideoID.String() != videoID || recs[0].Resolution.String() != resolution {
			t.Errorf("decoded VideoID %q, resolution %q", recs[0].VideoID, recs[0].Resolution)
		}
		if _, want := encodeSegment(recs); !bytes.Equal(payload, want) {
			t.Errorf("crafted payload %x, the encoder writes %x", payload, want)
		}
	})
}

// FuzzParseSegHeader checks the fixed-size header parser never panics
// and never accepts a wrong magic.
func FuzzParseSegHeader(f *testing.F) {
	hdr, payload := encodeSegment(fuzzRecords(8))
	f.Add(hdr)
	f.Add(hdr[:16])
	f.Add(append([]byte{}, payload[:min(len(payload), segHeaderSize)]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseSegHeader(data)
		if err != nil {
			return
		}
		if len(data) < segHeaderSize {
			t.Fatalf("parsed a %d-byte header (need %d)", len(data), segHeaderSize)
		}
		if binary.LittleEndian.Uint32(data) != segMagic {
			t.Fatalf("accepted header with magic %#x", binary.LittleEndian.Uint32(data))
		}
		_ = h
	})
}

// FuzzOpenShard feeds whole shard files — seeded from a real one —
// through the reader's index + scan path: corrupted shard headers,
// segment headers, CRCs and dictionaries must surface as errors (or
// clean truncation recovery), never as panics or runaway allocations,
// and a ScanByStart that ends without an error must have yielded
// non-decreasing starts.
func FuzzOpenShard(f *testing.F) {
	// Build a genuine two-segment shard in memory via the writer.
	dir := f.TempDir()
	w, err := NewWriter(dir, Options{SegmentRecords: 8})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range fuzzRecords(20) {
		w.Record("fuzz-ds", r)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"+shardSuffix))
	if err != nil || len(paths) != 1 {
		f.Fatalf("shard glob: %v (%d files)", err, len(paths))
	}
	shard, err := os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shard)
	f.Add(shard[:len(shard)/2])      // mid-segment truncation
	f.Add(shard[:len(shardMagic)+1]) // truncated shard header
	for _, off := range []int{4, 20, len(shard) / 2, len(shard) - 3} {
		if off < len(shard) {
			mut := bytes.Clone(shard)
			mut[off] ^= 0xA5 // header / CRC / dictionary corruption
			f.Add(mut)
		}
	}
	f.Add([]byte("not a shard file at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, "fuzz"+shardSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(fdir)
		if err != nil {
			return // rejected at indexing: fine
		}
		for _, name := range r.Datasets() {
			// Both scan orders must either stream records or error —
			// CRC mismatches, malformed payloads and headers whose
			// start range disagrees with their records surface here.
			for _, byStart := range []bool{false, true} {
				it := r.Iter(name)
				if byStart {
					it = r.ScanByStart(name)
				}
				n, sorted := 0, true
				var last time.Duration
				for {
					rec, ok := it.Next()
					if !ok {
						break
					}
					sorted = sorted && (n == 0 || rec.Start >= last)
					last = rec.Start
					n++
					if int64(n) > r.Records(name) {
						t.Fatalf("%s yielded %d records, index says %d", name, n, r.Records(name))
					}
				}
				// A scan may end in an error; a start-ordered one that
				// does not must have been in start order.
				if byStart && it.Err() == nil && !sorted {
					t.Fatalf("%s: ScanByStart ended cleanly out of start order", name)
				}
			}
		}
		if r.BufferedBytes() != 0 {
			t.Fatalf("iterators leaked %d buffered bytes", r.BufferedBytes())
		}
	})
}
