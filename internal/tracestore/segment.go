package tracestore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"time"
	"unsafe"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
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

// put renders the header into buf's first segHeaderSize bytes in
// little-endian layout.
func (h segHeader) put(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], segMagic)
	binary.LittleEndian.PutUint32(buf[4:], h.count)
	binary.LittleEndian.PutUint32(buf[8:], h.payloadLen)
	binary.LittleEndian.PutUint32(buf[12:], h.crc)
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.minStart))
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.maxStart))
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

// reset empties the dictionary and keeps its storage for the next
// segment.
func (d *dict[K]) reset() {
	clear(d.ids)
	d.values = d.values[:0]
}

// segmentEncoder encodes segments into storage it keeps from one
// segment to the next: the segment bytes, the dictionary-id column and
// the three dictionaries. A Writer keeps one for all its shards, since
// one goroutine spills them all.
type segmentEncoder struct {
	buf     []byte
	ids     []int
	servers dict[ipnet.Addr]
	videos  dict[capture.VideoID]
	res     dict[content.Resolution]
}

// encode sorts recs by start time (stable, preserving emission order
// among equal starts) and encodes them column by column. It returns
// the segment, header then payload, ready to append to a shard; the
// bytes are valid until the next encode. recs must be non-empty; the
// slice is reordered in place.
func (e *segmentEncoder) encode(recs []capture.FlowRecord) []byte {
	slices.SortStableFunc(recs, func(a, b capture.FlowRecord) int { return cmp.Compare(a.Start, b.Start) })

	buf := append(e.buf[:0], make([]byte, segHeaderSize)...)
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
	ids := slices.Grow(e.ids[:0], len(recs))[:len(recs)]
	e.servers.reset()
	for i, r := range recs {
		ids[i] = e.servers.id(r.Server)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.servers.values)))
	for _, a := range e.servers.values {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	buf = appendIDs(buf, ids)
	// Columns 6-7: VideoID and Resolution, dictionaries of
	// length-prefixed strings.
	e.videos.reset()
	for i, r := range recs {
		ids[i] = e.videos.id(r.VideoID)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.videos.values)))
	for _, v := range e.videos.values {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v[:]...)
	}
	buf = appendIDs(buf, ids)
	e.res.reset()
	for i, r := range recs {
		ids[i] = e.res.id(r.Resolution)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.res.values)))
	for _, r := range e.res.values {
		s := r.String()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = appendIDs(buf, ids)

	payload := buf[segHeaderSize:]
	segHeader{
		count:      uint32(len(recs)),
		payloadLen: uint32(len(payload)),
		crc:        crc32.ChecksumIEEE(payload),
		minStart:   recs[0].Start,
		maxStart:   recs[len(recs)-1].Start,
	}.put(buf)
	e.buf, e.ids = buf, ids
	return buf
}

// appendIDs appends a dictionary-id column.
func appendIDs(buf []byte, ids []int) []byte {
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// payloadReader walks an encoded payload. Errors are sticky: the
// first malformed read records err and every later read returns a
// zero value, so the column decode loops stay branch-light — and,
// because all error construction happens inside these methods rather
// than in the column decoders that call them, allocation-free on
// well-formed input (TestScanPathAllocs).
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

// resolution reads one resolution dictionary entry, a length-prefixed
// string, and maps it to its enum without converting it to a string.
func (p *payloadReader) resolution() content.Resolution {
	l := p.uvarint()
	if p.err == nil && l > uint64(len(p.buf)-p.pos) {
		p.fail("tracestore: dictionary string of %d bytes exceeds payload", l)
	}
	if p.err != nil {
		return 0
	}
	entry := p.buf[p.pos : p.pos+int(l)]
	p.pos += int(l)
	for _, r := range resolutions {
		if string(entry) == r.String() {
			return r
		}
	}
	p.fail("tracestore: unknown resolution %q", entry)
	return 0
}

// decodeBuf owns the reusable state of one streaming decoder. A
// scanIterator keeps one for its lifetime and decodes every segment
// into it, so the steady-state scan path allocates nothing: the
// payload buffer, record array and server dictionary recycle their
// backing arrays, the VideoID dictionary is read in place (see decode)
// and the resolution dictionary is a fixed array. One-shot callers use
// a fresh zero value.
type decodeBuf struct {
	payload []byte
	recs    []capture.FlowRecord
	srvDict []ipnet.Addr
	resDict [len(resolutions)]content.Resolution
}

// resolutions are the values a resolution dictionary may hold; a valid
// dictionary lists each at most once.
var resolutions = [...]content.Resolution{content.Res360p, content.Res480p, content.Res720p}

// videoEntrySize is the encoded size of one VideoID dictionary entry:
// its uvarint length, which for 11 is one byte, then the 11 bytes.
const videoEntrySize = 1 + len(capture.VideoID{})

// payloadSlot returns a length-n buffer backed by recycled capacity.
func (b *decodeBuf) payloadSlot(n int) []byte {
	if cap(b.payload) < n {
		b.payload = make([]byte, n)
	}
	b.payload = b.payload[:n]
	return b.payload
}

// decode reconstructs the records of b.payload. Records come back in
// stored (start-sorted) order in a slice aliasing b.recs — valid until
// the next decode on this buffer. The second result is the decoded
// footprint for the buffering gauge: the record array. A VideoID that
// is not 11 bytes and a resolution other than 360p, 480p and 720p are
// errors, as in capture.ParseLine.
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

	// Every valid VideoID entry has the same size, so the dictionary is
	// read in place: entry i sits at a fixed offset in the payload, and
	// each record copies its 11 bytes from there.
	nvid := p.uvarint()
	if p.err == nil && nvid > uint64((len(payload)-p.pos)/videoEntrySize) {
		p.fail("tracestore: VideoID dictionary of %d entries exceeds payload", nvid)
	}
	vids := p.pos
	for i := uint64(0); i < nvid && p.err == nil; i++ {
		if l := int(payload[p.pos]); l != videoEntrySize-1 {
			p.fail("tracestore: VideoID entry %d is not %d bytes", i, videoEntrySize-1)
		}
		p.pos += videoEntrySize
	}
	assignVideos(&p, recs, payload[vids:p.pos])

	nres := p.uvarint()
	if p.err == nil && nres > uint64(len(b.resDict)) {
		p.fail("tracestore: resolution dictionary of %d entries, only %d resolutions exist", nres, len(b.resDict))
	}
	res := b.resDict[:0]
	for i := uint64(0); i < nres && p.err == nil; i++ {
		res = append(res, p.resolution())
	}
	assignResolutions(&p, recs, res)

	if p.err != nil {
		return nil, 0, p.err
	}
	if p.pos != len(payload) {
		return nil, 0, fmt.Errorf("tracestore: %d trailing payload bytes", len(payload)-p.pos)
	}
	return recs, int64(count) * flowRecordSize, nil
}

// decodeFixedCols decodes the start/duration/bytes/client columns. The
// encoder stores starts sorted, so a delta that wraps a start below the
// one before it is corruption, even under a matching CRC.
func decodeFixedCols(p *payloadReader, recs []capture.FlowRecord) {
	recs[0].Start = time.Duration(p.varint())
	for i := 1; i < len(recs); i++ {
		recs[i].Start = recs[i-1].Start + time.Duration(p.uvarint())
		if recs[i].Start < recs[i-1].Start {
			p.fail("tracestore: start of record %d precedes the one before it", i)
		}
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

// assignVideos decodes the VideoID-id column against the dictionary
// entries in vids, each videoEntrySize bytes.
func assignVideos(p *payloadReader, recs []capture.FlowRecord, vids []byte) {
	n := uint64(len(vids) / videoEntrySize)
	for i := range recs {
		id := p.dictID(n)
		if p.err != nil {
			return
		}
		off := int(id)*videoEntrySize + 1
		recs[i].VideoID = capture.VideoID(vids[off : off+videoEntrySize-1])
	}
}

// assignResolutions decodes the resolution-id column against the
// dictionary.
func assignResolutions(p *payloadReader, recs []capture.FlowRecord, res []content.Resolution) {
	n := uint64(len(res))
	for i := range recs {
		id := p.dictID(n)
		if p.err != nil {
			return
		}
		recs[i].Resolution = res[id]
	}
}

// flowRecordSize is the struct size used by the buffering gauge.
const flowRecordSize = int64(unsafe.Sizeof(capture.FlowRecord{}))
