package wal

import (
	"crypto/sha256"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended frames become durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended frame: a mutation reply
	// implies durability. The safest and slowest policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker every syncEvery: a
	// crash loses at most the last interval's frames; recovery truncates
	// the torn tail and serves the last durable epoch.
	SyncInterval
	// SyncNever leaves syncing to the OS (and to checkpoints and Close).
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(name string) (SyncPolicy, error) {
	switch name {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", name)
	}
}

// Options configures a Recorder.
type Options struct {
	// Dir is the WAL directory (created if missing).
	Dir string
	// FS is the filesystem; nil means the real one. Tests inject faultfs.
	FS FS
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// CheckpointEvery writes a full checkpoint and rotates the log every
	// this many frames (default 64). The last 4×CheckpointEvery frames stay
	// in memory for follower streaming; a follower further behind than
	// that re-bootstraps from the checkpoint.
	CheckpointEvery int
}

const (
	// syncEvery is the SyncInterval period.
	syncEvery = 100 * time.Millisecond
	// keepCheckpoints is how many checkpoint generations stay on disk, so
	// a partial or bit-rotted newest checkpoint falls back to the previous
	// one at the cost of a longer replay.
	keepCheckpoints = 2
)

func (o *Options) normalize() error {
	if o.Dir == "" {
		return fmt.Errorf("wal: Options.Dir required")
	}
	if o.FS == nil {
		o.FS = OS
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	return nil
}

func ckptName(epoch uint64) string { return fmt.Sprintf("checkpoint-%016d.ckpt", epoch) }
func logName(epoch uint64) string  { return fmt.Sprintf("wal-%016d.log", epoch) }

// parseGen extracts the epoch from a checkpoint or log file name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	e, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return e, err == nil
}

type ringEntry struct {
	epoch uint64
	rec   []byte // full record envelope, ready to write to a stream
}

// Recorder owns the on-disk log: it appends sealed frames, fsyncs per
// policy, writes periodic checkpoints that rotate the log, retains recent
// frames in memory for follower streaming, and recovers all of it after a
// crash. One writer (the service's writer goroutine, via the publish
// hook) calls Append; stream subscribers attach concurrently.
type Recorder struct {
	opts Options

	mu        sync.Mutex
	cur       File
	epoch     uint64
	chain     [sha256.Size]byte
	sinceCkpt int
	dirty     bool // unsynced appended bytes (interval/never policies)
	lastCkpt  []byte
	ring      []ringEntry
	subs      map[chan []byte]struct{}
	closed    bool

	syncStop chan struct{}
	syncDone chan struct{}
}

// Open recovers (or initializes) the WAL directory and returns the
// recorder plus the recovered state — nil state means the directory was
// empty and the caller must Bootstrap with the initial topology before
// appending. After a successful recovery Open immediately writes a fresh
// checkpoint at the recovered epoch, converging the directory to a
// canonical layout whatever the crash left behind.
func Open(opts Options) (*Recorder, *State, error) {
	if err := opts.normalize(); err != nil {
		return nil, nil, err
	}
	fs := opts.FS
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, nil, err
	}
	st, err := recoverDir(fs, opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	r := &Recorder{
		opts:     opts,
		subs:     map[chan []byte]struct{}{},
		syncStop: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	if st != nil {
		r.epoch, r.chain = st.Epoch, st.Chain
		if err := r.checkpointLocked(st); err != nil {
			return nil, nil, err
		}
	}
	if opts.Sync == SyncInterval {
		go r.syncLoop()
	} else {
		close(r.syncDone)
	}
	return r, st, nil
}

// Bootstrap initializes a fresh log from the initial topology state: the
// state's chain becomes the genesis hash and the first checkpoint is
// written. Only valid on an empty directory (Open returned a nil state).
func (r *Recorder) Bootstrap(st *State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastCkpt != nil {
		return fmt.Errorf("wal: bootstrap of a non-empty log")
	}
	st.Chain = st.Hash()
	r.epoch, r.chain = st.Epoch, st.Chain
	return r.checkpointLocked(st)
}

// Epoch returns the last appended (or recovered) epoch and chain value —
// what the next frame must be sealed against.
func (r *Recorder) Epoch() (uint64, [sha256.Size]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch, r.chain
}

// Append writes one sealed frame. st must be the post-frame state; it is
// only encoded when a periodic checkpoint is due. With SyncAlways the
// frame is durable when Append returns.
func (r *Recorder) Append(f *Frame, st *State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("wal: append on closed recorder")
	}
	if r.cur == nil {
		return fmt.Errorf("wal: append before bootstrap")
	}
	if f.Epoch != r.epoch+1 {
		return fmt.Errorf("%w: appending epoch %d after %d", ErrEpochGap, f.Epoch, r.epoch)
	}
	rec := encodeRecord(kindFrame, f.Encode())
	if _, err := r.cur.Write(rec); err != nil {
		return err
	}
	if r.opts.Sync == SyncAlways {
		if err := r.cur.Sync(); err != nil {
			return err
		}
	} else {
		r.dirty = true
	}
	r.epoch, r.chain = f.Epoch, f.Chain
	r.ring = append(r.ring, ringEntry{epoch: f.Epoch, rec: rec})
	if retain := 4 * r.opts.CheckpointEvery; len(r.ring) > retain {
		r.ring = append(r.ring[:0:0], r.ring[len(r.ring)-retain:]...)
	}
	for sub := range r.subs {
		select {
		case sub <- rec:
		default:
			// The subscriber is not draining; cut it loose. It reconnects
			// and catches up from the ring (or re-bootstraps).
			delete(r.subs, sub)
			close(sub)
		}
	}
	r.sinceCkpt++
	if r.sinceCkpt >= r.opts.CheckpointEvery {
		return r.checkpointLocked(st)
	}
	return nil
}

// checkpointLocked writes checkpoint-<epoch>, rotates to a fresh log, and
// prunes generations beyond keepCheckpoints. The checkpoint file is written
// to a temp name, synced, then renamed — a crash mid-write leaves the
// previous checkpoint as the newest valid one.
func (r *Recorder) checkpointLocked(st *State) error {
	fs := r.opts.FS
	if st.Epoch != r.epoch {
		return fmt.Errorf("wal: checkpoint state epoch %d != log epoch %d", st.Epoch, r.epoch)
	}
	// Sync the outgoing log first: the fallback path (previous checkpoint
	// + this log) must be able to replay everything the new checkpoint
	// captures.
	if r.cur != nil {
		if r.dirty {
			if err := r.cur.Sync(); err != nil {
				return err
			}
			r.dirty = false
		}
		r.cur.Close()
		r.cur = nil
	}
	rec := encodeRecord(kindCheckpoint, st.Encode())
	tmp := path.Join(r.opts.Dir, ckptName(st.Epoch)+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path.Join(r.opts.Dir, ckptName(st.Epoch))); err != nil {
		return err
	}
	cur, err := fs.Create(path.Join(r.opts.Dir, logName(st.Epoch)))
	if err != nil {
		return err
	}
	r.cur = cur
	r.sinceCkpt = 0
	r.lastCkpt = rec
	r.pruneLocked(st.Epoch)
	return nil
}

// pruneLocked deletes checkpoints beyond the keepCheckpoints newest and any
// log not reachable from the oldest kept checkpoint.
func (r *Recorder) pruneLocked(newest uint64) {
	fs := r.opts.FS
	names, err := fs.ReadDir(r.opts.Dir)
	if err != nil {
		return // pruning is best-effort
	}
	var ckpts []uint64
	for _, name := range names {
		if e, ok := parseGen(name, "checkpoint-", ".ckpt"); ok && e <= newest {
			ckpts = append(ckpts, e)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	if len(ckpts) <= keepCheckpoints {
		ckpts = ckpts[:0]
	} else {
		ckpts = ckpts[keepCheckpoints:] // the victims
	}
	victims := map[string]struct{}{}
	for _, e := range ckpts {
		victims[ckptName(e)] = struct{}{}
	}
	// The oldest kept checkpoint bounds which logs are still useful.
	oldestKept := newest
	for _, name := range names {
		if e, ok := parseGen(name, "checkpoint-", ".ckpt"); ok {
			if _, gone := victims[name]; !gone && e < oldestKept {
				oldestKept = e
			}
		}
	}
	for _, name := range names {
		if _, gone := victims[name]; gone {
			fs.Remove(path.Join(r.opts.Dir, name))
			continue
		}
		if e, ok := parseGen(name, "wal-", ".log"); ok && e < oldestKept {
			fs.Remove(path.Join(r.opts.Dir, name))
		}
		if strings.HasSuffix(name, ".tmp") {
			fs.Remove(path.Join(r.opts.Dir, name))
		}
	}
}

// Close writes a final checkpoint of st (when non-nil and the log is
// bootstrapped), stops the sync loop, and closes the log file.
func (r *Recorder) Close(st *State) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	var err error
	if st != nil && r.cur != nil {
		err = r.checkpointLocked(st)
	}
	if r.cur != nil {
		if r.dirty {
			if serr := r.cur.Sync(); err == nil {
				err = serr
			}
		}
		if cerr := r.cur.Close(); err == nil {
			err = cerr
		}
		r.cur = nil
	}
	for sub := range r.subs {
		delete(r.subs, sub)
		close(sub)
	}
	r.mu.Unlock()
	if r.opts.Sync == SyncInterval {
		close(r.syncStop)
		<-r.syncDone
	}
	return err
}

func (r *Recorder) syncLoop() {
	defer close(r.syncDone)
	tick := time.NewTicker(syncEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			r.mu.Lock()
			if r.dirty && r.cur != nil {
				r.cur.Sync()
				r.dirty = false
			}
			r.mu.Unlock()
		case <-r.syncStop:
			return
		}
	}
}

// recoverDir loads the newest valid checkpoint and replays the log tail,
// truncating the first torn or corrupt trailing record. A nil state with
// nil error means a fresh directory.
func recoverDir(fs FS, dir string) (*State, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ckpts []uint64
	var logs []uint64
	for _, name := range names {
		if e, ok := parseGen(name, "checkpoint-", ".ckpt"); ok {
			ckpts = append(ckpts, e)
		}
		if e, ok := parseGen(name, "wal-", ".log"); ok {
			logs = append(logs, e)
		}
	}
	if len(ckpts) == 0 {
		return nil, nil // fresh directory (stray logs without any checkpoint are unusable)
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	var st *State
	var newestErr error
	for _, e := range ckpts {
		if st, err = loadCheckpoint(fs, path.Join(dir, ckptName(e)), e); err == nil {
			break
		}
		if newestErr == nil {
			newestErr = err
		}
	}
	if st == nil {
		return nil, fmt.Errorf("wal: no valid checkpoint among %d candidates in %s (newest: %w)", len(ckpts), dir, newestErr)
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	for _, e := range logs {
		if e < st.Epoch {
			continue
		}
		done, err := replayLog(fs, path.Join(dir, logName(e)), st)
		if err != nil {
			return nil, err
		}
		if done {
			break // tail truncated; anything later cannot chain
		}
	}
	return st, nil
}

// loadCheckpoint reads and validates one checkpoint file; on any damage
// the caller falls back to an older generation.
func loadCheckpoint(fs FS, name string, epoch uint64) (*State, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := NewRecordReader(f).NextCheckpoint()
	if err != nil {
		return nil, err
	}
	if st.Epoch != epoch {
		return nil, fmt.Errorf("%w: %s holds epoch %d", ErrCorrupt, name, st.Epoch)
	}
	return st, nil
}

// replayLog applies one log file's frames to st. It returns done=true
// when it hit (and truncated) a torn or corrupt tail — replay must stop
// there, since later frames cannot chain onto a truncated prefix.
func replayLog(fs FS, name string, st *State) (done bool, err error) {
	f, err := fs.Open(name)
	if err != nil {
		return false, err
	}
	rr := NewRecordReader(f)
	for {
		frame, rerr := rr.NextFrame()
		if rerr == io.EOF {
			f.Close()
			return false, nil
		}
		if rerr != nil {
			break // torn, corrupt or not a frame: truncate at the last good boundary
		}
		if aerr := st.Apply(frame); aerr != nil {
			// An epoch gap or chain mismatch means the record is not a
			// valid successor — same treatment as a corrupt tail.
			break
		}
	}
	good := rr.good
	f.Close()
	if size, serr := fs.Size(name); serr == nil && size > good {
		if terr := fs.Truncate(name, good); terr != nil {
			return true, terr
		}
	}
	return true, nil
}
