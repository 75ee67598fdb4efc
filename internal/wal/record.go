package wal

import (
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Record envelope, the unit of both the on-disk log and the follower
// stream:
//
//	u32  magic "TWF2"
//	u8   kind (frame | checkpoint)
//	u32  payload length
//	u32  CRC32 (IEEE) of the payload
//	...  payload
//
// The length lets a reader skip to the next record; the CRC catches bit
// rot and torn interiors; a short read against the length is the torn-
// tail signal recovery truncates on. Payloads are written raw: the hash
// chain already covers each frame body, and compression cost more CPU per
// commit, checkpoint and recovery than the bytes it saved were worth.
// Records of the earlier "TWF1" envelope, which gzipped the payload, are
// refused as corrupt.
const (
	recordMagic   = 0x32465754 // "TWF2" little-endian
	gzipMagic     = 0x31465754 // "TWF1", the retired gzip envelope
	recordHdrSize = 13
	// maxPayload bounds a single record so a corrupt length field cannot
	// claim more than a million-node checkpoint needs.
	maxPayload = 1 << 30
	// minChunk is the first read of a record body. Each later read asks
	// for as many bytes again as have arrived, so a header that claims a
	// large body costs memory only as the body's bytes come in.
	minChunk = 64 << 10
)

// Record kinds.
const (
	kindFrame      = 1
	kindCheckpoint = 2
)

// encodeRecord wraps payload in the record envelope.
func encodeRecord(kind uint8, payload []byte) []byte {
	b := make([]byte, 0, recordHdrSize+len(payload))
	b = appendU32(b, recordMagic)
	b = appendU8(b, kind)
	b = appendU32(b, uint32(len(payload)))
	b = appendU32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// RecordReader iterates the records of one log or checkpoint file, or of
// a follower's replication stream, which carries the same envelope. It
// counts the bytes it consumes and keeps the offset just past the last
// record it returned without error, so recovery can truncate a torn tail
// exactly at the record boundary.
type RecordReader struct {
	r    io.Reader
	n    int64 // bytes consumed
	good int64 // offset just past the last fully valid record
}

// NewRecordReader scans records from r.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{r: r}
}

// full fills p with io.ReadFull semantics, counting the bytes read.
func (rr *RecordReader) full(p []byte) error {
	n, err := io.ReadFull(rr.r, p)
	rr.n += int64(n)
	return err
}

// next returns the kind and payload of the next record. io.EOF means a
// clean end exactly at a record boundary; ErrTorn means the stream ended
// mid-record; ErrCorrupt means the bytes are wrong.
func (rr *RecordReader) next() (kind uint8, payload []byte, err error) {
	hdr := make([]byte, recordHdrSize)
	if err := rr.full(hdr); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header cut short: %v", ErrTorn, err)
	}
	d := &decoder{b: hdr}
	magic := d.u32()
	kind = d.u8()
	n := int(d.u32())
	crc := d.u32()
	if magic == gzipMagic {
		return 0, nil, fmt.Errorf("%w: record uses the old gzip envelope TWF1, which this version does not read", ErrCorrupt)
	}
	if magic != recordMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	if kind != kindFrame && kind != kindCheckpoint {
		return 0, nil, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	if n < 0 || n > maxPayload {
		return 0, nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	for len(payload) < n {
		k := min(n-len(payload), max(len(payload), minChunk))
		payload = slices.Grow(payload, k)
		if err := rr.full(payload[len(payload) : len(payload)+k]); err != nil {
			return 0, nil, fmt.Errorf("%w: body cut short: %v", ErrTorn, err)
		}
		payload = payload[:len(payload)+k]
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return 0, nil, fmt.Errorf("%w: crc mismatch %#x != %#x", ErrCorrupt, got, crc)
	}
	rr.good = rr.n
	return kind, payload, nil
}

// NextFrame returns the next frame record. io.EOF means a clean end;
// ErrTorn a mid-record cut; ErrCorrupt damaged bytes or an unexpected
// record kind.
func (rr *RecordReader) NextFrame() (*Frame, error) {
	kind, payload, err := rr.next()
	if err != nil {
		return nil, err
	}
	if kind != kindFrame {
		return nil, fmt.Errorf("%w: record kind %d, want frame", ErrCorrupt, kind)
	}
	return DecodeFrame(payload)
}

// NextCheckpoint returns the next checkpoint record's state.
func (rr *RecordReader) NextCheckpoint() (*State, error) {
	kind, payload, err := rr.next()
	if err != nil {
		return nil, err
	}
	if kind != kindCheckpoint {
		return nil, fmt.Errorf("%w: record kind %d, want checkpoint", ErrCorrupt, kind)
	}
	return DecodeState(payload)
}
