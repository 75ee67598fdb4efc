package wal_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"strings"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/wal"
	"topoctl/internal/wal/faultfs"
)

// ckptname mirrors the recorder's on-disk naming; the format is part of
// the durable layout, so hardcoding it here doubles as a pin.
func ckptname(epoch uint64) string { return fmt.Sprintf("checkpoint-%016d.ckpt", epoch) }

// genesis builds a small ring topology state at epoch 0 with the chain
// set to its genesis hash.
func genesis(slots int) *wal.State {
	points := make([]geom.Point, slots)
	alive := make([]bool, slots)
	rows := make([][]graph.Halfedge, slots)
	for v := 0; v < slots; v++ {
		points[v] = geom.Point{float64(v), 0}
		alive[v] = true
		prev, next := (v+slots-1)%slots, (v+1)%slots
		rows[v] = []graph.Halfedge{{To: prev, W: 1}, {To: next, W: 1}}
	}
	st := &wal.State{
		Epoch: 0, T: 1.5, Radius: 2, Dim: 2,
		Points: points, Alive: alive, Live: slots,
		Base: graph.FrozenFromRows(rows), Spanner: graph.FrozenFromRows(rows),
	}
	st.Chain = st.Hash()
	return st
}

// nextFrame seals a frame that moves one vertex (rows unchanged).
func nextFrame(st *wal.State) *wal.Frame {
	return moveFrame(st, float64(st.Epoch+1)*0.25)
}

// moveFrame seals the next frame onto st: vertex epoch%slots moves to
// height y, rows unchanged.
func moveFrame(st *wal.State, y float64) *wal.Frame {
	seq := st.Epoch + 1
	v := int(seq) % len(st.Alive)
	pt := geom.Point{float64(v), y}
	f := &wal.Frame{
		Epoch: seq,
		Slots: int32(len(st.Alive)),
		Live:  int32(st.Live),
		Ops:   []wal.Op{{Kind: wal.OpMove, ID: int32(v), Point: pt}},
		Deltas: []wal.VertexDelta{{
			V: int32(v), Alive: true, Point: pt,
			Base:    st.Base.Neighbors(v),
			Spanner: st.Spanner.Neighbors(v),
		}},
	}
	f.Seal(st.Chain)
	return f
}

// forkedHistories builds two histories from one genesis that diverge at
// epoch k: a is history A at epoch k, and fork is history B's frame k+1.
// Both histories share frames 1..k-1; at epoch k B moves the same vertex
// somewhere else. B's frame k+1 has the very body A's own frame k+1 would
// have — only the chain it was sealed onto differs.
func forkedHistories(t *testing.T, k uint64) (a *wal.State, fork *wal.Frame) {
	t.Helper()
	a = genesis(6)
	for a.Epoch < k-1 {
		if err := a.Apply(nextFrame(a)); err != nil {
			t.Fatal(err)
		}
	}
	b := a.Clone()
	if err := a.Apply(nextFrame(a)); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(moveFrame(b, -1)); err != nil {
		t.Fatal(err)
	}
	return a, nextFrame(b)
}

// advance applies n frames to st through the recorder.
func advance(t *testing.T, r *wal.Recorder, st *wal.State, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f := nextFrame(st)
		if err := st.Apply(f); err != nil {
			t.Fatalf("apply epoch %d: %v", f.Epoch, err)
		}
		if err := r.Append(f, st); err != nil {
			t.Fatalf("append epoch %d: %v", f.Epoch, err)
		}
	}
}

// TestRecorderCycle drives bootstrap → appends → close → reopen on the
// fault filesystem and checks full recovery of epoch, chain, and body.
func TestRecorderCycle(t *testing.T) {
	fs := faultfs.New()
	opts := wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways, CheckpointEvery: 4}

	r, st, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatal("fresh dir returned a state")
	}
	st = genesis(8)
	if err := r.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	advance(t, r, st, 11) // crosses two checkpoint boundaries (4, 8)
	wantBody := st.Encode()
	if err := r.Close(st); err != nil {
		t.Fatal(err)
	}

	r2, st2, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(nil)
	if st2 == nil || st2.Epoch != 11 {
		t.Fatalf("recovered epoch = %+v, want 11", st2)
	}
	if !bytes.Equal(st2.Encode(), wantBody) {
		t.Fatal("recovered state differs from the pre-close state")
	}
	// The log keeps accepting frames after recovery.
	advance(t, r2, st2, 3)
	if st2.Epoch != 14 {
		t.Fatalf("epoch after post-recovery appends = %d, want 14", st2.Epoch)
	}
}

// TestRecoverAfterCrash kills the recorder (no Close) with SyncAlways:
// every acknowledged append must survive.
func TestRecoverAfterCrash(t *testing.T) {
	fs := faultfs.New()
	opts := wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways, CheckpointEvery: 5}
	r, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := genesis(6)
	if err := r.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	advance(t, r, st, 7)
	want := st.Encode()
	fs.Crash() // power cut: no Close, unsynced bytes vanish

	_, st2, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st2 == nil || st2.Epoch != 7 {
		t.Fatalf("recovered epoch %v, want 7 (SyncAlways must lose nothing)", st2)
	}
	if !bytes.Equal(st2.Encode(), want) {
		t.Fatal("recovered state body differs")
	}
}

// TestTornTailTruncated crashes with unsynced appended frames
// (SyncNever): recovery must truncate the torn tail and land on the last
// durable epoch, and the directory must keep working afterwards.
func TestTornTailTruncated(t *testing.T) {
	fs := faultfs.New()
	opts := wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncNever, CheckpointEvery: 100}
	r, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := genesis(6)
	if err := r.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	advance(t, r, st, 4)
	fs.SyncAll() // everything up to epoch 4 is durable
	durable := st.Encode()
	advance(t, r, st, 3) // epochs 5..7 never synced
	fs.Crash()

	_, st2, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st2 == nil || st2.Epoch != 4 {
		t.Fatalf("recovered epoch %v, want 4 (last durable)", st2)
	}
	if !bytes.Equal(st2.Encode(), durable) {
		t.Fatal("recovered state differs from last durable state")
	}
}

// TestMidRecordTear wedges the filesystem partway through a record write,
// leaving a torn half-record on disk; recovery truncates it.
func TestMidRecordTear(t *testing.T) {
	for _, cutback := range []int64{1, 5, 13} {
		fs := faultfs.New()
		opts := wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways, CheckpointEvery: 100}
		r, _, err := wal.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		st := genesis(6)
		if err := r.Bootstrap(st); err != nil {
			t.Fatal(err)
		}
		advance(t, r, st, 3)
		want := st.Encode()

		// Wedge mid-way through the next frame's record write.
		fs.SetWriteBudget(cutback)
		f := nextFrame(st)
		side := st.Clone()
		if err := side.Apply(f); err != nil {
			t.Fatal(err)
		}
		if err := r.Append(f, side); err == nil {
			t.Fatal("append through a wedged filesystem succeeded")
		}
		fs.Crash()

		_, st2, err := wal.Open(opts)
		if err != nil {
			t.Fatalf("cutback %d: %v", cutback, err)
		}
		if st2 == nil || st2.Epoch != 3 {
			t.Fatalf("cutback %d: recovered epoch %v, want 3", cutback, st2)
		}
		if !bytes.Equal(st2.Encode(), want) {
			t.Fatalf("cutback %d: recovered state differs", cutback)
		}
	}
}

// TestCheckpointFallback bit-rots the newest checkpoint; recovery must
// fall back to the previous generation and replay its log.
func TestCheckpointFallback(t *testing.T) {
	fs := faultfs.New()
	opts := wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways, CheckpointEvery: 4}
	r, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := genesis(8)
	if err := r.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	advance(t, r, st, 9) // checkpoints at 4 and 8, log holds 9
	want := st.Encode()
	fs.Crash()

	// Rot the newest checkpoint (epoch 8). Recovery must fall back to the
	// epoch-4 checkpoint — and the full tail still replays: the epoch-4
	// log reaches epoch 8 and wal-8.log carries epoch 9.
	if err := fs.FlipBit("wal/"+ckptname(8), 40, 3); err != nil {
		t.Fatal(err)
	}
	_, st2, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st2 == nil || st2.Epoch != 9 {
		t.Fatalf("recovered epoch %v, want 9 via fallback checkpoint", st2)
	}
	if !bytes.Equal(st2.Encode(), want) {
		t.Fatal("fallback recovery produced a different state")
	}
}

// TestPartialCheckpointIgnored models a crash mid-checkpoint: the tmp
// file exists but was never renamed. Recovery ignores it and cleans up.
func TestPartialCheckpointIgnored(t *testing.T) {
	fs := faultfs.New()
	opts := wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways, CheckpointEvery: 1000}
	r, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := genesis(5)
	if err := r.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	advance(t, r, st, 2)
	want := st.Encode()

	// A checkpoint attempt that wedges mid-write leaves only a tmp file.
	fs.SetWriteBudget(30)
	if err := r.Checkpoint(st); err == nil {
		t.Fatal("checkpoint through a wedged filesystem succeeded")
	}
	fs.Crash()

	_, st2, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st2 == nil || st2.Epoch != 2 {
		t.Fatalf("recovered epoch %v, want 2", st2)
	}
	if !bytes.Equal(st2.Encode(), want) {
		t.Fatal("recovered state differs")
	}
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("tmp checkpoint %s survived recovery", name)
		}
	}
}

// TestPrune checks that old generations are deleted but two checkpoint
// generations (and their logs) survive.
func TestPrune(t *testing.T) {
	fs := faultfs.New()
	opts := wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways, CheckpointEvery: 2}
	r, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := genesis(4)
	if err := r.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	advance(t, r, st, 10) // checkpoints at 2,4,6,8,10
	var ckpts, logs int
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".ckpt") {
			ckpts++
		}
		if strings.HasSuffix(name, ".log") {
			logs++
		}
	}
	if ckpts != 2 {
		t.Fatalf("%d checkpoints on disk, want 2", ckpts)
	}
	if logs != 2 {
		t.Fatalf("%d logs on disk, want 2 (from the oldest kept checkpoint on)", logs)
	}
	if err := r.Close(st); err != nil {
		t.Fatal(err)
	}
}

// TestCrashPointMatrix sweeps the write budget across an entire
// append+checkpoint burst: wherever the power dies, recovery must come
// back to a valid prefix of the acknowledged history and keep accepting
// frames. This is the headline "no partial write is fatal" sweep.
func TestCrashPointMatrix(t *testing.T) {
	// First measure the total bytes a clean run writes.
	clean := faultfs.New()
	opts := func(fs *faultfs.FS) wal.Options {
		return wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways, CheckpointEvery: 3}
	}
	r, _, err := wal.Open(opts(clean))
	if err != nil {
		t.Fatal(err)
	}
	st := genesis(6)
	if err := r.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	advance(t, r, st, 8)
	total := int64(0)
	for _, name := range clean.Files() {
		total += clean.SizeNow(name)
	}

	// Now re-run with the budget cut at every 37-byte step (finer sweeps
	// multiply runtime without covering new code paths: every record is
	// longer than 37 bytes, so each interval still lands inside one).
	for budget := int64(1); budget < total; budget += 37 {
		fs := faultfs.New()
		fs.SetWriteBudget(budget)
		r, _, err := wal.Open(opts(fs))
		if err != nil {
			continue // wedged during Open: nothing acknowledged, nothing owed
		}
		st := genesis(6)
		acked := uint64(0)
		ackBody := map[uint64][]byte{}
		if err := r.Bootstrap(st); err == nil {
			ackBody[0] = st.Encode()
			for i := 0; i < 8; i++ {
				f := nextFrame(st)
				if err := st.Apply(f); err != nil {
					t.Fatal(err)
				}
				if err := r.Append(f, st); err != nil {
					break
				}
				acked = st.Epoch
				ackBody[acked] = st.Encode()
			}
		}
		fs.Crash()

		r2, st2, err := wal.Open(opts(fs))
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		if len(ackBody) > 0 {
			if st2 == nil {
				t.Fatalf("budget %d: acknowledged epoch %d but recovered nothing", budget, acked)
			}
			if st2.Epoch < acked {
				t.Fatalf("budget %d: recovered epoch %d < acknowledged %d (SyncAlways)", budget, st2.Epoch, acked)
			}
			if want, ok := ackBody[st2.Epoch]; ok && !bytes.Equal(st2.Encode(), want) {
				t.Fatalf("budget %d: recovered epoch %d body differs from acknowledged", budget, st2.Epoch)
			}
		}
		if st2 != nil {
			// The recovered directory must accept new frames.
			advance(t, r2, st2, 1)
			r2.Close(st2)
		} else {
			r2.Close(nil)
		}
	}
}

// TestForkedFrameRejected applies history B's frame k+1 onto history A's
// state k. Epoch succession holds and the frame body is byte-identical to
// A's own frame k+1, so only the hash chain can refuse it.
func TestForkedFrameRejected(t *testing.T) {
	a, fork := forkedHistories(t, 5)
	if err := a.Clone().Apply(fork); !errors.Is(err, wal.ErrChainMismatch) {
		t.Fatalf("forked frame onto the other history: err=%v, want chain mismatch", err)
	}
	if err := a.Apply(nextFrame(a)); err != nil {
		t.Fatalf("own frame with the same body rejected: %v", err)
	}
}

// TestRecoveryStopsAtFork splices history B's frame k+1 into history A's
// log — the recorder checks only epoch succession on append — and
// requires recovery to replay up to epoch k, drop the forked frame like a
// corrupt tail, and keep the directory appendable on history A.
func TestRecoveryStopsAtFork(t *testing.T) {
	const k = 5
	fs := faultfs.New()
	opts := wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways, CheckpointEvery: 100}
	r, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := genesis(6)
	if err := r.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	advance(t, r, st, k)
	want := st.Encode()
	_, fork := forkedHistories(t, k)
	if err := r.Append(fork, st); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}

	r2, st2, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(nil)
	if st2 == nil || st2.Epoch != k {
		t.Fatalf("recovered %+v, want epoch %d: replay must stop at the fork", st2, k)
	}
	if !bytes.Equal(st2.Encode(), want) {
		t.Fatal("recovered state differs from history A at the fork")
	}
	advance(t, r2, st2, 1)
}

// gzipRecord builds a record in the retired TWF1 envelope: the same
// header fields over a gzip-compressed payload. kind 1 is a frame, 2 a
// checkpoint.
func gzipRecord(kind byte, payload []byte) []byte {
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(payload)
	zw.Close()
	b := append([]byte("TWF1"), kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(z.Len()))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(z.Bytes()))
	return append(b, z.Bytes()...)
}

// TestGzipEnvelopeRefused reads well-formed TWF1 frame and checkpoint
// records through both record lenses: each is refused as corrupt, naming
// the old gzip envelope, rather than misread.
func TestGzipEnvelopeRefused(t *testing.T) {
	st := genesis(6)
	for _, rec := range [][]byte{gzipRecord(1, nextFrame(st).Encode()), gzipRecord(2, st.Encode())} {
		_, ferr := wal.NewRecordReader(bytes.NewReader(rec)).NextFrame()
		_, cerr := wal.NewRecordReader(bytes.NewReader(rec)).NextCheckpoint()
		for _, err := range []error{ferr, cerr} {
			if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "gzip") {
				t.Fatalf("kind %d: err=%v, want corrupt naming the gzip envelope", rec[4], err)
			}
		}
	}
}

// TestOpenRefusesGzipDirectory opens a directory written in the TWF1
// envelope — one checkpoint and a log of two frames. Open must fail and
// leave every file byte-identical: nothing truncated, pruned or
// re-checkpointed.
func TestOpenRefusesGzipDirectory(t *testing.T) {
	fs := faultfs.New()
	st := genesis(6)
	ckpt := gzipRecord(2, st.Encode())
	var log []byte
	for i := 0; i < 2; i++ {
		f := nextFrame(st)
		if err := st.Apply(f); err != nil {
			t.Fatal(err)
		}
		log = append(log, gzipRecord(1, f.Encode())...)
	}
	for name, body := range map[string][]byte{
		"wal/" + ckptname(0):                ckpt,
		fmt.Sprintf("wal/wal-%016d.log", 0): log,
	} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(body)
		f.Sync()
		f.Close()
	}
	contents := func() map[string]string {
		m := map[string]string{}
		for _, name := range fs.Files() {
			f, err := fs.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(f)
			f.Close()
			m[name] = string(b)
		}
		return m
	}
	before := contents()
	_, got, err := wal.Open(wal.Options{Dir: "wal", FS: fs, Sync: wal.SyncAlways})
	if err == nil || got != nil {
		t.Fatalf("Open of a TWF1 directory: state %v, err %v; want an error", got, err)
	}
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "gzip") {
		t.Errorf("err=%v, want corrupt naming the gzip envelope", err)
	}
	if after := contents(); !maps.Equal(after, before) {
		t.Fatalf("Open changed the directory: %d files before, %d after", len(before), len(after))
	}
}
