package wal

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Record envelope, the unit of both the on-disk log and the follower
// stream:
//
//	u32  magic "TWF1"
//	u8   kind (frame | checkpoint)
//	u32  compressed payload length
//	u32  CRC32 (IEEE) of the compressed payload
//	...  gzip(payload)
//
// The length lets a reader skip to the next record; the CRC catches bit
// rot and torn interiors; a short read against the length is the torn-
// tail signal recovery truncates on. Payloads are gzip-compressed the
// same way netio ships instances — adjacency rows share long runs of
// float bit patterns and compress well.
const (
	recordMagic   = 0x31465754 // "TWF1" little-endian
	recordHdrSize = 13
	// maxPayload bounds a single record so a corrupt length field cannot
	// become a giant allocation. Checkpoints of million-node topologies
	// fit comfortably.
	maxPayload = 1 << 30
)

// Record kinds.
const (
	kindFrame      = 1
	kindCheckpoint = 2
)

// gzipWriters pools the record compressors: a fresh gzip.Writer
// allocates about 800 KB of deflate state, more than the rest of a
// durable commit. Reset restores a writer to exactly the state NewWriter
// builds, so a pooled writer's output is byte-identical to a fresh one's.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// encodeRecord wraps payload in the record envelope.
func encodeRecord(kind uint8, payload []byte) []byte {
	var z bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(&z)
	zw.Write(payload)
	zw.Close()
	zw.Reset(nil) // drop the reference to z before pooling
	gzipWriters.Put(zw)
	comp := z.Bytes()

	b := make([]byte, 0, recordHdrSize+len(comp))
	b = appendU32(b, recordMagic)
	b = appendU8(b, kind)
	b = appendU32(b, uint32(len(comp)))
	b = appendU32(b, crc32.ChecksumIEEE(comp))
	return append(b, comp...)
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

// next returns the kind and decompressed payload of the next record.
// io.EOF means a clean end exactly at a record boundary; ErrTorn means the
// stream ended mid-record; ErrCorrupt means the bytes are wrong.
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
	clen := int(d.u32())
	crc := d.u32()
	if magic != recordMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	if kind != kindFrame && kind != kindCheckpoint {
		return 0, nil, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	if clen < 0 || clen > maxPayload {
		return 0, nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, clen)
	}
	comp := make([]byte, clen)
	if err := rr.full(comp); err != nil {
		return 0, nil, fmt.Errorf("%w: body cut short: %v", ErrTorn, err)
	}
	if got := crc32.ChecksumIEEE(comp); got != crc {
		return 0, nil, fmt.Errorf("%w: crc mismatch %#x != %#x", ErrCorrupt, got, crc)
	}
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	payload, err = io.ReadAll(io.LimitReader(zr, maxPayload))
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
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
