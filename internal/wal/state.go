package wal

import (
	"crypto/sha256"
	"fmt"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// State is the replicated topology state machine: slot-indexed positions
// and liveness plus the frozen base graph and spanner, stamped with the
// epoch and hash-chain value that produced them. Leader recovery and
// followers run the exact same State.Apply over the exact same frames, so
// both converge to element-identical snapshots — that shared code path is
// what the differential tests pin.
type State struct {
	Epoch uint64
	Chain [sha256.Size]byte
	// T, Radius, Dim are the engine options the topology was built under;
	// a follower needs them to serve stats and to hand a recovered state
	// back to an engine.
	T      float64
	Radius float64
	Dim    int

	Points  []geom.Point
	Alive   []bool
	Live    int
	Base    *graph.Frozen
	Spanner *graph.Frozen
}

// Apply advances the state by one frame: verifies epoch succession and
// the hash chain, then replaces the changed slots and adjacency rows.
// On error the state is unchanged.
func (s *State) Apply(f *Frame) error {
	if f.Epoch != s.Epoch+1 {
		return fmt.Errorf("%w: frame epoch %d onto state epoch %d", ErrEpochGap, f.Epoch, s.Epoch)
	}
	if want := chainNext(s.Chain, f.appendBody(nil)); want != f.Chain {
		return fmt.Errorf("%w: at epoch %d", ErrChainMismatch, f.Epoch)
	}
	slots := int(f.Slots)
	if slots < len(s.Alive) {
		return fmt.Errorf("%w: slot space shrank %d -> %d", ErrCorrupt, len(s.Alive), slots)
	}
	points := append([]geom.Point(nil), s.Points...)
	alive := append([]bool(nil), s.Alive...)
	for len(points) < slots {
		points = append(points, nil)
		alive = append(alive, false)
	}
	baseUps := make([]graph.RowUpdate, 0, len(f.Deltas))
	spUps := make([]graph.RowUpdate, 0, len(f.Deltas))
	for _, vd := range f.Deltas {
		v := int(vd.V)
		if v < 0 || v >= slots {
			return fmt.Errorf("%w: delta vertex %d outside %d slots", ErrCorrupt, v, slots)
		}
		if vd.Alive {
			points[v] = vd.Point
			alive[v] = true
		} else {
			points[v] = nil
			alive[v] = false
		}
		baseUps = append(baseUps, graph.RowUpdate{V: v, Row: vd.Base})
		spUps = append(spUps, graph.RowUpdate{V: v, Row: vd.Spanner})
	}
	s.Base = graph.ApplyRows(s.Base, slots, baseUps)
	s.Spanner = graph.ApplyRows(s.Spanner, slots, spUps)
	s.Points = points
	s.Alive = alive
	s.Live = int(f.Live)
	s.Epoch = f.Epoch
	s.Chain = f.Chain
	return nil
}

// appendBody encodes everything except the chain value, in canonical
// form: options, slot metadata, then the base and spanner rows in vertex
// order (each row in its stored halfedge order). Two states with the same
// body bytes serve byte-identical topologies — this encoding is both the
// checkpoint format and the byte-identity oracle the differential tests
// compare leaders and followers with.
func (s *State) appendBody(b []byte) []byte {
	b = appendU64(b, s.Epoch)
	b = appendF64(b, s.T)
	b = appendF64(b, s.Radius)
	b = appendU16(b, uint16(s.Dim))
	b = appendU32(b, uint32(len(s.Alive)))
	for v, a := range s.Alive {
		live := uint8(0)
		if a {
			live = 1
		}
		b = appendU8(b, live)
		if a {
			b = appendPoint(b, s.Points[v])
		}
	}
	b = appendFrozen(b, s.Base, len(s.Alive))
	b = appendFrozen(b, s.Spanner, len(s.Alive))
	return b
}

func appendFrozen(b []byte, f *graph.Frozen, slots int) []byte {
	for v := 0; v < slots; v++ {
		var row []graph.Halfedge
		if f != nil && v < f.N() {
			row = f.Neighbors(v)
		}
		b = appendRow(b, row)
	}
	return b
}

// Encode serializes the state for a checkpoint: chain value, then body.
func (s *State) Encode() []byte {
	b := make([]byte, 0, 64)
	b = append(b, s.Chain[:]...)
	return s.appendBody(b)
}

// Hash returns the digest of the state body — the genesis value of the
// hash chain for a freshly bootstrapped log.
func (s *State) Hash() [sha256.Size]byte {
	return sha256.Sum256(s.appendBody(nil))
}

// DecodeState parses a checkpoint payload.
func DecodeState(b []byte) (*State, error) {
	d := &decoder{b: b}
	s := &State{}
	copy(s.Chain[:], d.take(sha256.Size))
	s.Epoch = d.u64()
	s.T = d.f64()
	s.Radius = d.f64()
	s.Dim = int(d.u16())
	slots := d.count(1)
	s.Points = make([]geom.Point, slots)
	s.Alive = make([]bool, slots)
	for v := 0; v < slots && d.err == nil; v++ {
		if d.u8() == 1 {
			s.Alive[v] = true
			s.Points[v] = d.point()
			s.Live++
		}
	}
	var err error
	if s.Base, err = decodeFrozen(d, slots); err != nil {
		return nil, err
	}
	if s.Spanner, err = decodeFrozen(d, slots); err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after checkpoint", ErrCorrupt, len(b)-d.off)
	}
	return s, nil
}

func decodeFrozen(d *decoder, slots int) (*graph.Frozen, error) {
	rows := make([][]graph.Halfedge, slots)
	for v := 0; v < slots && d.err == nil; v++ {
		rows[v] = d.row()
	}
	if d.err != nil {
		return nil, d.err
	}
	return graph.FrozenFromRows(rows), nil
}
