package wal

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// testGenesis builds a small ring topology state at epoch 0 with the
// chain set to its genesis hash.
func testGenesis(slots int) *State {
	points := make([]geom.Point, slots)
	alive := make([]bool, slots)
	rows := make([][]graph.Halfedge, slots)
	for v := 0; v < slots; v++ {
		points[v] = geom.Point{float64(v), 0}
		alive[v] = true
		prev, next := (v+slots-1)%slots, (v+1)%slots
		rows[v] = []graph.Halfedge{{To: prev, W: 1}, {To: next, W: 1}}
	}
	st := &State{
		Epoch: 0, T: 1.5, Radius: 2, Dim: 2,
		Points: points, Alive: alive, Live: slots,
		Base: graph.FrozenFromRows(rows), Spanner: graph.FrozenFromRows(rows),
	}
	st.Chain = st.Hash()
	return st
}

// testFrame seals a frame that moves one vertex (rows unchanged) — enough
// to advance the epoch and change the state body deterministically.
func testFrame(st *State, seq uint64) *Frame {
	v := int(seq) % len(st.Alive)
	pt := geom.Point{float64(v), float64(seq) * 0.25}
	f := &Frame{
		Epoch: st.Epoch + 1,
		Slots: int32(len(st.Alive)),
		Live:  int32(st.Live),
		Ops:   []Op{{Kind: OpMove, ID: int32(v), Point: pt}},
		Deltas: []VertexDelta{{
			V: int32(v), Alive: true, Point: pt,
			Base:    st.Base.Neighbors(v),
			Spanner: st.Spanner.Neighbors(v),
		}},
	}
	f.Seal(st.Chain)
	return f
}

func TestRecordRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("alpha"), bytes.Repeat([]byte{0xAB}, 4096), {}}
	for _, p := range payloads {
		buf.Write(encodeRecord(kindFrame, p))
	}
	rr := NewRecordReader(bytes.NewReader(buf.Bytes()))
	for i, want := range payloads {
		kind, got, err := rr.next()
		if err != nil || kind != kindFrame {
			t.Fatalf("record %d: kind=%d err=%v", i, kind, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: payload mismatch", i)
		}
	}
	if _, _, err := rr.next(); err != io.EOF {
		t.Fatalf("clean end: err=%v, want io.EOF", err)
	}
	if rr.good != int64(buf.Len()) {
		t.Fatalf("good=%d, want %d", rr.good, buf.Len())
	}
}

// TestPooledRecordMatchesFresh pins the compressor pool: consecutive frame
// and checkpoint records, each from a writer the previous record used,
// are byte-equal to the envelope around a fresh gzip.Writer's output.
func TestPooledRecordMatchesFresh(t *testing.T) {
	fresh := func(kind uint8, payload []byte) []byte {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		zw.Write(payload)
		zw.Close()
		b := appendU8(appendU32(nil, recordMagic), kind)
		b = appendU32(appendU32(b, uint32(z.Len())), crc32.ChecksumIEEE(z.Bytes()))
		return append(b, z.Bytes()...)
	}
	st := testGenesis(64)
	for i := 0; i < 6; i++ {
		f := testFrame(st, st.Epoch+1)
		if err := st.Apply(f); err != nil {
			t.Fatal(err)
		}
		for _, rec := range []struct {
			kind    uint8
			payload []byte
		}{{kindFrame, f.Encode()}, {kindCheckpoint, st.Encode()}} {
			if got, want := encodeRecord(rec.kind, rec.payload), fresh(rec.kind, rec.payload); !bytes.Equal(got, want) {
				t.Fatalf("epoch %d kind %d: pooled record differs from a fresh writer's", st.Epoch, rec.kind)
			}
		}
	}
}

func TestRecordTornTail(t *testing.T) {
	rec := encodeRecord(kindFrame, []byte("first"))
	full := append(append([]byte{}, rec...), encodeRecord(kindFrame, []byte("second"))...)
	// Every strict prefix that cuts into the second record must yield the
	// first record, then ErrTorn/ErrCorrupt with good at the boundary.
	for cut := len(rec) + 1; cut < len(full); cut++ {
		rr := NewRecordReader(bytes.NewReader(full[:cut]))
		if _, _, err := rr.next(); err != nil {
			t.Fatalf("cut %d: first record unreadable: %v", cut, err)
		}
		_, _, err := rr.next()
		if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: err=%v, want torn or corrupt", cut, err)
		}
		if rr.good != int64(len(rec)) {
			t.Fatalf("cut %d: good=%d, want %d", cut, rr.good, len(rec))
		}
	}
}

func TestRecordBitFlip(t *testing.T) {
	rec := encodeRecord(kindFrame, []byte("payload under test"))
	for off := 0; off < len(rec); off++ {
		mut := append([]byte{}, rec...)
		mut[off] ^= 0x10
		rr := NewRecordReader(bytes.NewReader(mut))
		_, got, err := rr.next()
		if err == nil && bytes.Equal(got, []byte("payload under test")) {
			t.Fatalf("bit flip at %d went undetected", off)
		}
	}
}

func TestFrameRoundtripAndChain(t *testing.T) {
	st := testGenesis(6)
	f := testFrame(st, 1)
	enc := f.Encode()
	got, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != f.Epoch || got.Chain != f.Chain || got.Slots != f.Slots || got.Live != f.Live {
		t.Fatalf("header mismatch: %+v vs %+v", got, f)
	}
	if len(got.Ops) != 1 || got.Ops[0].Kind != OpMove || got.Ops[0].ID != f.Ops[0].ID {
		t.Fatalf("ops mismatch: %+v", got.Ops)
	}
	if len(got.Deltas) != 1 || got.Deltas[0].V != f.Deltas[0].V || len(got.Deltas[0].Spanner) != 2 {
		t.Fatalf("deltas mismatch: %+v", got.Deltas)
	}
	// The decoded frame must apply cleanly (chain verifies).
	if err := st.Clone().Apply(got); err != nil {
		t.Fatalf("decoded frame rejected: %v", err)
	}
	// Any tampering with the decoded frame must break the chain.
	got.Deltas[0].Point = geom.Point{99, 99}
	if err := st.Clone().Apply(got); !errors.Is(err, ErrChainMismatch) {
		t.Fatalf("tampered frame: err=%v, want chain mismatch", err)
	}
}

func TestStateRoundtrip(t *testing.T) {
	st := testGenesis(5)
	advanceNoLog(t, st, 3)
	dec, err := DecodeState(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), st.Encode()) {
		t.Fatal("state roundtrip not byte-identical")
	}
	if dec.Epoch != st.Epoch || dec.Chain != st.Chain || dec.Live != st.Live {
		t.Fatalf("decoded header mismatch: %+v", dec)
	}
}

func advanceNoLog(t *testing.T, st *State, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f := testFrame(st, st.Epoch+1)
		if err := st.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEpochGapRejected(t *testing.T) {
	st := testGenesis(4)
	f := testFrame(st, 1)
	f.Epoch = 5 // skips ahead; seal is over the wrong epoch anyway
	f.Seal(st.Chain)
	if err := st.Apply(f); !errors.Is(err, ErrEpochGap) {
		t.Fatalf("err=%v, want epoch gap", err)
	}
}
