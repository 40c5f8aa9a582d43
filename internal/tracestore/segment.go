package tracestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// segHeaderSize is the fixed on-disk segment header:
// magic u32 | count u32 | payloadLen u32 | crc u32 | minStart i64 | maxStart i64.
const segHeaderSize = 32

// segHeader describes one segment without its payload.
type segHeader struct {
	count      uint32
	payloadLen uint32
	crc        uint32
	minStart   time.Duration
	maxStart   time.Duration
}

// marshal renders the header in little-endian layout.
func (h segHeader) marshal() []byte {
	buf := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint32(buf[0:], segMagic)
	binary.LittleEndian.PutUint32(buf[4:], h.count)
	binary.LittleEndian.PutUint32(buf[8:], h.payloadLen)
	binary.LittleEndian.PutUint32(buf[12:], h.crc)
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.minStart))
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.maxStart))
	return buf
}

// parseSegHeader validates the magic and unpacks the header fields.
func parseSegHeader(buf []byte) (segHeader, error) {
	if len(buf) < segHeaderSize {
		return segHeader{}, fmt.Errorf("tracestore: segment header short (%d bytes)", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != segMagic {
		return segHeader{}, fmt.Errorf("tracestore: bad segment magic")
	}
	return segHeader{
		count:      binary.LittleEndian.Uint32(buf[4:]),
		payloadLen: binary.LittleEndian.Uint32(buf[8:]),
		crc:        binary.LittleEndian.Uint32(buf[12:]),
		minStart:   time.Duration(binary.LittleEndian.Uint64(buf[16:])),
		maxStart:   time.Duration(binary.LittleEndian.Uint64(buf[24:])),
	}, nil
}

// dict assigns dense ids to values in first-appearance order, so the
// encoded stream is deterministic for a given record sequence.
type dict[K comparable] struct {
	ids    map[K]int
	values []K
}

func (d *dict[K]) id(v K) int {
	if d.ids == nil {
		d.ids = make(map[K]int)
	}
	if id, ok := d.ids[v]; ok {
		return id
	}
	id := len(d.values)
	d.ids[v] = id
	d.values = append(d.values, v)
	return id
}

// encodeSegment sorts recs by start time (stable, preserving emission
// order among equal starts) and encodes them column by column. It
// returns the ready-to-append header bytes and payload. recs must be
// non-empty; the slice is reordered in place.
func encodeSegment(recs []capture.FlowRecord) (header, payload []byte) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })

	var buf []byte
	// Column 1: start times — zigzag first value, plain deltas after.
	buf = binary.AppendVarint(buf, int64(recs[0].Start))
	for i := 1; i < len(recs); i++ {
		buf = binary.AppendUvarint(buf, uint64(recs[i].Start-recs[i-1].Start))
	}
	// Column 2: durations (End - Start), zigzag (defensively signed).
	for _, r := range recs {
		buf = binary.AppendVarint(buf, int64(r.End-r.Start))
	}
	// Column 3: byte counts, zigzag.
	for _, r := range recs {
		buf = binary.AppendVarint(buf, r.Bytes)
	}
	// Column 4: client addresses, raw uvarints.
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, uint64(r.Client))
	}
	// Column 5: server addresses, dictionary-encoded.
	var servers dict[ipnet.Addr]
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = servers.id(r.Server)
	}
	buf = binary.AppendUvarint(buf, uint64(len(servers.values)))
	for _, a := range servers.values {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	// Columns 6-7: VideoID and Resolution, dictionary-encoded strings.
	for _, col := range []func(capture.FlowRecord) string{
		func(r capture.FlowRecord) string { return r.VideoID },
		func(r capture.FlowRecord) string { return r.Resolution },
	} {
		var d dict[string]
		for i, r := range recs {
			ids[i] = d.id(col(r))
		}
		buf = binary.AppendUvarint(buf, uint64(len(d.values)))
		for _, s := range d.values {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, id := range ids {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}

	h := segHeader{
		count:      uint32(len(recs)),
		payloadLen: uint32(len(buf)),
		crc:        crc32.ChecksumIEEE(buf),
		minStart:   recs[0].Start,
		maxStart:   recs[len(recs)-1].Start,
	}
	return h.marshal(), buf
}

// payloadReader walks an encoded payload. Errors are sticky: the
// first malformed read records err and every later read returns a
// zero value, so the column decode loops stay branch-light — and,
// because all error construction happens inside these methods rather
// than in the //perf:noalloc column decoders that call them,
// allocation-free on well-formed input.
type payloadReader struct {
	buf []byte
	pos int
	err error
}

// fail records the first error. This is the cold path: the fmt state
// and boxed operands it allocates exist only on malformed input.
func (p *payloadReader) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

func (p *payloadReader) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.buf[p.pos:])
	if n <= 0 {
		p.fail("tracestore: malformed uvarint at offset %d", p.pos)
		return 0
	}
	p.pos += n
	return v
}

func (p *payloadReader) varint() int64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Varint(p.buf[p.pos:])
	if n <= 0 {
		p.fail("tracestore: malformed varint at offset %d", p.pos)
		return 0
	}
	p.pos += n
	return v
}

// dictID reads one dictionary index and range-checks it against n.
func (p *payloadReader) dictID(n uint64) uint64 {
	id := p.uvarint()
	if p.err == nil && id >= n {
		p.fail("tracestore: dictionary index %d out of range", id)
		return 0
	}
	return id
}

// decodeBuf owns the reusable state of one streaming decoder. A
// scanIterator keeps one for its lifetime and decodes every segment
// into it, so the steady-state scan path allocates nothing: the
// payload buffer, record array and dictionaries recycle their backing
// arrays, and dictionary strings are interned across segments (a
// shard reuses a small vocabulary of video ids and resolutions over
// and over). One-shot callers use a fresh zero value.
type decodeBuf struct {
	payload  []byte
	recs     []capture.FlowRecord
	srvDict  []ipnet.Addr
	strDict  []string
	interned map[string]string
}

// maxInterned bounds the intern table so an adversarial shard with an
// unbounded string vocabulary degrades to per-segment allocation
// instead of unbounded growth.
const maxInterned = 1 << 17

// payloadSlot returns a length-n buffer backed by recycled capacity.
func (b *decodeBuf) payloadSlot(n int) []byte {
	if cap(b.payload) < n {
		b.payload = make([]byte, n)
	}
	b.payload = b.payload[:n]
	return b.payload
}

// intern returns the canonical copy of raw, allocating only on first
// sight. The map-index conversion does not allocate on the hit path.
func (b *decodeBuf) intern(raw []byte) string {
	if s, ok := b.interned[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if len(b.interned) < maxInterned {
		if b.interned == nil {
			b.interned = make(map[string]string, 64)
		}
		b.interned[s] = s
	}
	return s
}

// decode reconstructs the records of b.payload. Records come back in
// stored (start-sorted) order in a slice aliasing b.recs — valid until
// the next decode on this buffer. The second result is the decoded
// footprint for the buffering gauge: the record array plus the
// dictionary string bytes (shared across records).
func (b *decodeBuf) decode(count int) ([]capture.FlowRecord, int64, error) {
	payload := b.payload
	// The header is not covered by the payload CRC, so validate the
	// count before allocating: every record contributes at least one
	// byte to the start-delta column alone, so a count exceeding the
	// payload length is provably a corrupted header — reject it
	// instead of attempting a giant allocation.
	if count < 0 || count > len(payload) {
		return nil, 0, fmt.Errorf("tracestore: segment count %d impossible for %d payload bytes", count, len(payload))
	}
	if cap(b.recs) < count {
		b.recs = make([]capture.FlowRecord, count)
	}
	recs := b.recs[:count]
	if count == 0 {
		return recs, 0, nil
	}
	p := payloadReader{buf: payload}

	decodeFixedCols(&p, recs)

	nsrv := p.uvarint()
	if p.err == nil && nsrv > uint64(len(payload)) {
		p.fail("tracestore: server dictionary of %d entries exceeds payload", nsrv)
	}
	if p.err == nil {
		if cap(b.srvDict) < int(nsrv) {
			b.srvDict = make([]ipnet.Addr, nsrv)
		}
		srv := b.srvDict[:nsrv]
		for i := range srv {
			srv[i] = ipnet.Addr(p.uvarint())
		}
		assignServers(&p, recs, srv)
	}

	footprint := int64(count) * int64(flowRecordSize)
	var strBytes int64
	b.strDict, strBytes = b.stringDictInto(&p, b.strDict)
	footprint += strBytes
	assignStringCol(&p, recs, b.strDict, false)
	b.strDict, strBytes = b.stringDictInto(&p, b.strDict)
	footprint += strBytes
	assignStringCol(&p, recs, b.strDict, true)

	if p.err != nil {
		return nil, 0, p.err
	}
	if p.pos != len(payload) {
		return nil, 0, fmt.Errorf("tracestore: %d trailing payload bytes", len(payload)-p.pos)
	}
	return recs, footprint, nil
}

// decodeFixedCols decodes the start/duration/bytes/client columns.
//
//perf:hot
//perf:noalloc
func decodeFixedCols(p *payloadReader, recs []capture.FlowRecord) {
	recs[0].Start = time.Duration(p.varint())
	for i := 1; i < len(recs); i++ {
		recs[i].Start = recs[i-1].Start + time.Duration(p.uvarint())
	}
	for i := range recs {
		recs[i].End = recs[i].Start + time.Duration(p.varint())
	}
	for i := range recs {
		recs[i].Bytes = p.varint()
	}
	for i := range recs {
		recs[i].Client = ipnet.Addr(p.uvarint())
	}
}

// assignServers decodes the server-id column against the dictionary.
//
//perf:hot
//perf:noalloc
func assignServers(p *payloadReader, recs []capture.FlowRecord, srv []ipnet.Addr) {
	n := uint64(len(srv))
	for i := range recs {
		id := p.dictID(n)
		if p.err != nil {
			return
		}
		recs[i].Server = srv[id]
	}
}

// stringDictInto decodes one string dictionary into dst's recycled
// capacity, interning entries through b. It returns the (possibly
// regrown) dictionary and the summed entry bytes for the footprint
// gauge; on error it returns an empty dictionary.
func (b *decodeBuf) stringDictInto(p *payloadReader, dst []string) ([]string, int64) {
	n := p.uvarint()
	if p.err == nil && n > uint64(len(p.buf)-p.pos) {
		p.fail("tracestore: dictionary of %d entries exceeds payload", n)
	}
	if p.err != nil {
		return dst[:0], 0
	}
	if cap(dst) < int(n) {
		dst = make([]string, n)
	}
	dst = dst[:n]
	var strBytes int64
	for i := range dst {
		l := p.uvarint()
		if p.err != nil {
			return dst[:0], 0
		}
		if l > uint64(len(p.buf)-p.pos) {
			p.fail("tracestore: dictionary string of %d bytes exceeds payload", l)
			return dst[:0], 0
		}
		dst[i] = b.intern(p.buf[p.pos : p.pos+int(l)])
		p.pos += int(l)
		strBytes += int64(l)
	}
	return dst, strBytes
}

// assignStringCol decodes one string-id column against the dictionary
// into the VideoID (resolution=false) or Resolution column.
//
//perf:hot
//perf:noalloc
func assignStringCol(p *payloadReader, recs []capture.FlowRecord, d []string, resolution bool) {
	n := uint64(len(d))
	for i := range recs {
		id := p.dictID(n)
		if p.err != nil {
			return
		}
		if resolution {
			recs[i].Resolution = d[id]
		} else {
			recs[i].VideoID = d[id]
		}
	}
}

// flowRecordSize is the struct size used by the buffering gauge.
const flowRecordSize = 64
