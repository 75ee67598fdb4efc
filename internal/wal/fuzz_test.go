package wal

// Native fuzz targets for the decode surfaces that face untrusted bytes: a
// follower reads the record stream straight off a network socket, and
// recovery reads whatever a crash left on disk. The contract under fuzzing
// is "no panics, clean errors": every input either decodes or fails with
// an error — never an index panic, never unbounded work. The committed
// seed corpora in testdata/fuzz/ pin the interesting shapes (valid
// records, torn tails, flipped bytes, truncated frames); run a real
// exploration with `make fuzz-short` or `go test -fuzz <Target>
// ./internal/wal/`.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// fuzzSeedFrame builds a small sealed frame covering every field shape:
// all three op kinds, live and dead deltas, empty and multi-entry rows.
func fuzzSeedFrame() *Frame {
	f := &Frame{
		Epoch: 2,
		Slots: 3,
		Live:  2,
		Ops: []Op{
			{Kind: OpJoin, ID: 2, Point: geom.Point{0.5, 1.5}},
			{Kind: OpLeave, ID: 1},
			{Kind: OpMove, ID: 0, Point: geom.Point{2, 3}},
		},
		Deltas: []VertexDelta{
			{V: 0, Alive: true, Point: geom.Point{2, 3},
				Base:    []graph.Halfedge{{To: 2, W: 1.25}},
				Spanner: []graph.Halfedge{{To: 2, W: 1.25}}},
			{V: 1, Alive: false},
			{V: 2, Alive: true, Point: geom.Point{0.5, 1.5},
				Base: []graph.Halfedge{{To: 0, W: 1.25}, {To: 1, W: 0.5}}},
		},
	}
	f.Seal([32]byte{1, 2, 3})
	return f
}

// recordSeeds returns byte-stream seeds for the record scanner: a clean
// two-record stream, a torn tail, a flipped CRC, an unknown kind, and
// junk. The committed seed-N files hold the same shapes in the retired
// gzip envelope "TWF1"; they are kept as written and now pin its refusal.
func recordSeeds(t testing.TB) [][]byte {
	frame := encodeRecord(kindFrame, fuzzSeedFrame().Encode())
	stream := append(append([]byte(nil), frame...), frame...)
	torn := stream[:len(stream)-7]
	flipped := append([]byte(nil), frame...)
	flipped[10] ^= 0x40
	badKind := append([]byte(nil), frame...)
	badKind[4] = 9
	return [][]byte{
		{},
		stream,
		torn,
		flipped,
		badKind,
		[]byte("TWF2 but not really"),
		bytes.Repeat([]byte{0xff}, 64),
	}
}

// FuzzRecordStream feeds arbitrary bytes to the exported record scanner —
// the follower's network-facing read path. It must always terminate with
// a clean error (io.EOF for a clean end, ErrTorn/ErrCorrupt otherwise,
// io.ErrUnexpectedEOF from a reader cut inside the buffered layer) and
// never panic.
func FuzzRecordStream(f *testing.F) {
	for _, s := range recordSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRecordReader(bytes.NewReader(data))
		frames := 0
		for {
			fr, err := rr.NextFrame()
			if err != nil {
				checkStreamErr(t, err)
				break
			}
			if fr == nil {
				t.Fatal("NextFrame returned nil frame with nil error")
			}
			frames++
			if frames > len(data) {
				t.Fatal("decoded more frames than input bytes; scanner is not consuming")
			}
		}
		// The same bytes through the checkpoint lens: kind mismatches must
		// surface as ErrCorrupt, not as misparsed state.
		rr = NewRecordReader(bytes.NewReader(data))
		for {
			if _, err := rr.NextCheckpoint(); err != nil {
				checkStreamErr(t, err)
				break
			}
		}
	})
}

func checkStreamErr(t *testing.T, err error) {
	t.Helper()
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, ErrTorn),
		errors.Is(err, ErrCorrupt):
	default:
		t.Fatalf("record scan failed with unclassified error: %v", err)
	}
}

// FuzzDecodeFrame fuzzes the frame payload decoder directly (a record's
// payload). Beyond no-panic, it pins the encode→decode→encode fixed point:
// anything DecodeFrame accepts must re-encode to a stable canonical form
// (byte equality with the input is NOT required — e.g. a nonzero alive
// byte decodes to true and re-encodes as 1 — but one round trip must
// reach the fixed point, or the hash chain would be ill-defined).
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	valid := fuzzSeedFrame().Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	mangled := append([]byte(nil), valid...)
	mangled[8] ^= 0xff
	f.Add(mangled)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) {
				t.Fatalf("DecodeFrame failed with unclassified error: %v", err)
			}
			return
		}
		e1 := fr.Encode()
		fr2, err := DecodeFrame(e1)
		if err != nil {
			t.Fatalf("re-decoding an accepted frame's encoding failed: %v", err)
		}
		if e2 := fr2.Encode(); !bytes.Equal(e1, e2) {
			t.Fatalf("encode→decode→encode is not a fixed point:\n e1=%x\n e2=%x", e1, e2)
		}
	})
}

// FuzzDecodeState fuzzes the checkpoint payload decoder the same way —
// it parses whole frozen graphs, the largest decode surface in the
// package.
func FuzzDecodeState(f *testing.F) {
	f.Add([]byte{})
	g := graph.New(3)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 0.5)
	st := &State{
		Epoch: 5, T: 1.5, Radius: 1, Dim: 2,
		Points:  []geom.Point{{0, 0}, {1, 0}, nil},
		Alive:   []bool{true, true, false},
		Live:    2,
		Base:    graph.Freeze(g),
		Spanner: graph.Freeze(g),
	}
	valid := st.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) {
				t.Fatalf("DecodeState failed with unclassified error: %v", err)
			}
			return
		}
		e1 := st.Encode()
		st2, err := DecodeState(e1)
		if err != nil {
			t.Fatalf("re-decoding an accepted state's encoding failed: %v", err)
		}
		if e2 := st2.Encode(); !bytes.Equal(e1, e2) {
			t.Fatal("state encode→decode→encode is not a fixed point")
		}
	})
}

// TestWriteSeedCorpus materializes the in-code seeds as committed corpus
// files under testdata/fuzz/<Target>/ (the `go test fuzz v1` format), so
// plain `go test` and CI fuzz-short runs start from the interesting
// shapes without re-deriving them. Run with WRITE_FUZZ_CORPUS=1 to
// refresh after changing the seeds; the generated files are committed.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	valid := fuzzSeedFrame().Encode()
	mangled := append([]byte(nil), valid...)
	mangled[8] ^= 0xff
	writeCorpus(t, "FuzzRecordStream", "twf2-", recordSeeds(t))
	writeCorpus(t, "FuzzDecodeFrame", "seed-", [][]byte{valid, valid[:len(valid)-5], mangled})
	g := graph.New(3)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 0.5)
	st := &State{Epoch: 5, T: 1.5, Radius: 1, Dim: 2,
		Points: []geom.Point{{0, 0}, {1, 0}, nil}, Alive: []bool{true, true, false},
		Live: 2, Base: graph.Freeze(g), Spanner: graph.Freeze(g)}
	sv := st.Encode()
	writeCorpus(t, "FuzzDecodeState", "seed-", [][]byte{sv, sv[:len(sv)/2]})
}

func writeCorpus(t *testing.T, target, prefix string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, prefix+strconv.Itoa(i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
