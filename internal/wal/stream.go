package wal

import (
	"net/http"
	"strconv"
)

// Replication surface. The leader mounts these next to the service
// handler:
//
//	GET /wal/checkpoint       the latest full-snapshot checkpoint record
//	GET /wal/stream?from=E    frame records with epoch > E, then live tail
//
// Both endpoints speak the record envelope format — the same bytes that
// live on disk. A follower bootstraps from the checkpoint, then streams
// frames from its applied epoch; if it has fallen further behind than the
// in-memory retention window, the stream answers 410 Gone and the
// follower re-bootstraps.

// EpochHeader carries the leader's current epoch on replication
// responses, letting a catching-up follower report its lag.
const EpochHeader = "X-Topoctl-Epoch"

// HandleCheckpoint serves the latest checkpoint record.
func (r *Recorder) HandleCheckpoint(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	rec := r.lastCkpt
	epoch := r.epoch
	r.mu.Unlock()
	if rec == nil {
		http.Error(w, "wal: not bootstrapped", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(EpochHeader, strconv.FormatUint(epoch, 10))
	w.Write(rec)
}

// HandleStream serves frames with epoch > from as a chunked stream that
// stays open and follows the live log tail. The connection ends when the
// recorder closes, the client goes away, or the subscriber falls too far
// behind the writer (it should reconnect and catch up from the ring).
func (r *Recorder) HandleStream(w http.ResponseWriter, req *http.Request) {
	from, err := strconv.ParseUint(req.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "wal: bad from epoch", http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		http.Error(w, "wal: closed", http.StatusServiceUnavailable)
		return
	}
	ringStart := r.epoch + 1
	if len(r.ring) > 0 {
		ringStart = r.ring[0].epoch
	}
	if from+1 < ringStart {
		// The follower is behind the retention window; it must take a
		// fresh checkpoint.
		r.mu.Unlock()
		http.Error(w, "wal: epoch out of retention, re-bootstrap from checkpoint", http.StatusGone)
		return
	}
	var backlog [][]byte
	for _, ent := range r.ring {
		if ent.epoch > from {
			backlog = append(backlog, ent.rec)
		}
	}
	sub := make(chan []byte, 256)
	r.subs[sub] = struct{}{}
	r.mu.Unlock()

	defer func() {
		r.mu.Lock()
		if _, ok := r.subs[sub]; ok {
			delete(r.subs, sub)
			// Drain a concurrent send racing the delete; the recorder
			// never sends after removal.
		}
		r.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "application/octet-stream")
	epoch, _ := r.Epoch()
	w.Header().Set(EpochHeader, strconv.FormatUint(epoch, 10))
	flusher, _ := w.(http.Flusher)
	// Flush the headers now: with an empty backlog the first frame may be
	// far off, and the subscriber should learn promptly that the stream is
	// established.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	send := func(rec []byte) bool {
		if _, err := w.Write(rec); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, rec := range backlog {
		if !send(rec) {
			return
		}
	}
	ctx := req.Context()
	for {
		select {
		case rec, ok := <-sub:
			if !ok {
				return // recorder closed, or we fell behind and were cut
			}
			if !send(rec) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}
