package service

// Native fuzz targets for the daemon's untrusted request surface. The
// contract under fuzzing: arbitrary bytes either decode into a request the
// service answers or are rejected with a 4xx and the JSON error envelope —
// never a panic, never a 5xx. FuzzValidateOps checks the mutation
// validator on its own: whatever batch it accepts must satisfy every limit
// it documents.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
)

// fuzzOps decodes an arbitrary []Op from bytes: a count byte, then per op
// a kind byte (join, leave, move, or an unknown kind), a signed 64-bit id,
// a dimension byte and that many raw float64 coordinates — so NaN, ±Inf,
// huge magnitudes, negative ids and oversized dimensions are all one bit
// flip away. Input that runs out truncates the batch.
func fuzzOps(data []byte) []Op {
	kinds := [...]string{OpJoin, OpLeave, OpMove, "warp"}
	take := func(k int) []byte {
		if len(data) < k {
			return nil
		}
		b := data[:k]
		data = data[k:]
		return b
	}
	head := take(1)
	if head == nil {
		return nil
	}
	ops := make([]Op, 0, head[0])
	for range int(head[0]) {
		hdr := take(10)
		if hdr == nil {
			break
		}
		op := Op{Kind: kinds[hdr[0]%4], ID: int(int64(binary.LittleEndian.Uint64(hdr[1:9])))}
		for range int(hdr[9]) {
			c := take(8)
			if c == nil {
				break
			}
			op.Point = append(op.Point, math.Float64frombits(binary.LittleEndian.Uint64(c)))
		}
		ops = append(ops, op)
	}
	return ops
}

func FuzzValidateOps(f *testing.F) {
	coord := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	op := func(kind byte, id int64, pt ...float64) []byte {
		b := append([]byte{kind}, binary.LittleEndian.AppendUint64(nil, uint64(id))...)
		b = append(b, byte(len(pt)))
		for _, x := range pt {
			b = append(b, coord(x)...)
		}
		return b
	}
	batch := func(ops ...[]byte) []byte { return append([]byte{byte(len(ops))}, bytes.Join(ops, nil)...) }
	f.Add([]byte{})
	f.Add(batch(op(0, 0, 1, 2)))
	f.Add(batch(op(1, 7), op(2, 3, 0.5, 0.5)))
	f.Add(batch(op(0, 0, math.NaN(), 0)))
	f.Add(batch(op(2, -1, 1, 1)))
	f.Add(batch(op(2, MaxNodeID, 1, 1)))
	f.Add(batch(op(0, 0, math.Inf(1))))
	f.Add(batch(op(3, 0, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		if err := ValidateOps(ops); err != nil {
			return // clean rejection is the common, correct outcome
		}
		if len(ops) == 0 || len(ops) > MaxBatchOps {
			t.Fatalf("accepted a batch of %d ops", len(ops))
		}
		for i, op := range ops {
			needID := op.Kind == OpLeave || op.Kind == OpMove
			needPoint := op.Kind == OpJoin || op.Kind == OpMove
			if !needID && !needPoint {
				t.Fatalf("op %d: accepted unknown kind %q", i, op.Kind)
			}
			if needID && (op.ID < 0 || op.ID >= MaxNodeID) {
				t.Fatalf("op %d: accepted id %d", i, op.ID)
			}
			if !needPoint {
				continue
			}
			if len(op.Point) == 0 || len(op.Point) > MaxDim {
				t.Fatalf("op %d: accepted %d-dimensional point", i, len(op.Point))
			}
			for _, c := range op.Point {
				if math.IsNaN(c) || math.Abs(c) > MaxCoord {
					t.Fatalf("op %d: accepted coordinate %v", i, c)
				}
			}
		}
	})
}

// fuzzEndpoints are the request surfaces FuzzHandler drives, selected by
// its first argument. The POST endpoints take the fuzzed bytes as the
// body; GET /analyze/divergence takes them as its raw query string.
var fuzzEndpoints = [...]string{
	"/route", "/distance", "/mutate",
	"/analyze/impact", "/analyze/around", "/analyze/route",
	"/analyze/divergence",
}

func FuzzHandler(f *testing.F) {
	for _, s := range []struct {
		ep   uint8
		body string
	}{
		{0, `{"src":0,"dst":13}`},
		{0, `{"scheme":"greedy","src":3,"dst":9}`},
		{1, `{"src":1,"dst":2}`},
		{2, `{"ops":[{"op":"join","point":[2,2]},{"op":"leave","id":7}]}`},
		{2, `{"ops":[{"op":"move","id":5,"point":[1e15,-1e15]}]}`},
		{3, `{"vertices":[3]}`},
		{3, `{"box_lo":[0,0],"box_hi":[1,1]}`},
		{4, `{"center":0,"hops":2,"graph":"base"}`},
		{5, `{"src":0,"dst":13}`},
		{6, `sample=64&buckets=8&witnesses=4&seed=-3`},
		{0, `{"src":0,"dst":1} junk`},
		{1, `{"src":-1,"dst":99999999999}`},
	} {
		f.Add(s.ep, []byte(s.body))
	}
	// Reads share one leader; each /mutate input gets a fresh one, so every
	// input meets the same 32-node topology and a crasher reproduces from
	// its corpus file alone.
	shared := testService(f, 32, Options{})
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		svc := shared
		path := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		if path == "/mutate" {
			svc = testService(t, 32, Options{})
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		if path == "/analyze/divergence" {
			req = httptest.NewRequest("GET", path, nil)
			req.URL.RawQuery = string(body)
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code >= 400 {
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s %q: status %d without the error envelope: %q", path, body, rec.Code, rec.Body)
			}
		}
	})
}
