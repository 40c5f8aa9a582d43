// Package tracestore is the disk-backed columnar trace store: it
// spills capture.FlowRecord streams to disk in fixed-size segments so
// paper-scale (and beyond) studies run with flat RSS instead of
// holding millions of flow records in capture.MemSink slices.
//
// # Layout
//
// A store is a directory with one shard file per dataset
// ("<escaped-dataset>.shard"), so each of the five monitored networks
// is read back on its own. One goroutine writes the whole store: the
// Writer keeps a buffer and a file handle per shard and takes no lock.
//
// A shard file is a small header (magic, format version, the dataset
// name — the filename is only a sanitized hint) followed by a sequence
// of self-describing segments. Each segment holds up to SegmentRecords
// records, sorted by flow start time, in a compact binary columnar
// encoding:
//
//   - Start times: varint deltas (sorted, so deltas are non-negative),
//     with the first value zigzag-encoded.
//   - Durations (End-Start) and byte counts: zigzag varints.
//   - Client addresses: raw uvarints.
//   - Server addresses, VideoIDs and Resolutions: per-segment
//     dictionaries (few distinct values repeat across many flows) with
//     uvarint indices.
//
// Every segment header carries the record count, payload length, a
// CRC-32 of the payload, and the segment's min/max start time, so a
// reader can index a shard without decoding payloads and can stream
// start-ordered views opening only the segments whose time ranges
// overlap the merge frontier.
//
// # Durability
//
// Segments are appended atomically from the writer's point of view: a
// crash mid-write leaves at most one truncated segment at the tail of
// a shard. Readers detect the truncation (short header, short payload,
// or CRC mismatch on the final segment) and recover every complete
// segment before it; corruption anywhere else is reported as an error.
//
// # When to use disk vs memory
//
// capture.MemSink remains the default for tests and small studies
// (Scale below ~0.2): no files, no serialization. The tracestore is
// for paper scale and above — Options.Store in the public API routes
// capture through a Writer here, and the analysis side consumes the
// Reader's streaming iterators in bounded memory (at most one decoded
// segment per scanned shard). At any scale the tables and figures are
// bit-identical between the two paths.
package tracestore

import (
	"fmt"
	"strings"
)

const (
	// shardMagic opens every shard file.
	shardMagic = "YTTS1\n"
	// segMagic opens every segment header.
	segMagic = 0x59534547 // "YSEG"
	// DefaultSegmentRecords is the default per-shard spill threshold.
	// At roughly 60-100 bytes per decoded record this keeps a decoded
	// segment in the low single-digit megabytes.
	DefaultSegmentRecords = 1 << 16
)

// Options configures a Writer.
type Options struct {
	// SegmentRecords is the number of records buffered per shard
	// before a segment spills to disk. Zero means
	// DefaultSegmentRecords.
	SegmentRecords int
}

// shardFileName maps a dataset name to its file name: bytes outside
// [A-Za-z0-9._-] are %XX-escaped, so distinct datasets always map to
// distinct files and round-trip through any filesystem. The authentic
// name is stored inside the shard header; the filename is a hint.
func shardFileName(dataset string) string {
	var b strings.Builder
	for i := 0; i < len(dataset); i++ {
		c := dataset[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String() + shardSuffix
}

const shardSuffix = ".shard"
