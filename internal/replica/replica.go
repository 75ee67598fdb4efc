// Package replica implements the follower side of WAL replication: it
// bootstraps from the leader's latest checkpoint, follows the frame
// stream, verifies the hash chain on every frame, and publishes each
// applied epoch as an immutable snapshot into a follower service.
//
// The client owns all failure handling: dropped streams reconnect with
// exponential backoff plus jitter, resuming from the last applied epoch;
// a 410 Gone (the follower fell out of the leader's retention window)
// triggers a fresh checkpoint bootstrap. The follower keeps serving its
// last applied topology throughout, reporting connection state and epoch
// lag through the service's replica status.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"topoctl/internal/service"
	"topoctl/internal/wal"
)

// Options configures a follower client. It reconnects over
// http.DefaultClient (a connect timeout but no overall deadline, because
// the stream is long-lived) with a backoff from 100ms to 5s: each retry
// doubles the wait and adds up to 50% jitter so a herd of followers does
// not reconnect in lockstep.
type Options struct {
	// Leader is the leader's base URL, e.g. "http://127.0.0.1:7080".
	Leader string
	// Service is the follower service snapshots are published into
	// (service.NewFollower).
	Service *service.Service
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)

	// backoffMin/backoffMax override the reconnect backoff bounds; tests
	// shorten them.
	backoffMin, backoffMax time.Duration
	// onApply, when set, is called with the state after every applied
	// epoch — bootstrap checkpoints included. The differential tests use
	// it to compare follower state bodies against the leader's, byte for
	// byte. The state is shared with the client: treat it as read-only.
	onApply func(st *wal.State)
}

func (o *Options) normalize() error {
	if o.Leader == "" {
		return errors.New("replica: Options.Leader required")
	}
	if o.Service == nil {
		return errors.New("replica: Options.Service required")
	}
	if o.backoffMin <= 0 {
		o.backoffMin = 100 * time.Millisecond
	}
	if o.backoffMax < o.backoffMin {
		o.backoffMax = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// errGone signals a 410 from the stream endpoint: the follower is out of
// the retention window and must re-bootstrap from a checkpoint.
var errGone = errors.New("replica: out of retention window")

// Client replicates a leader's WAL into a follower service.
type Client struct {
	opts Options

	st          *wal.State
	leaderEpoch uint64
	lastFrame   time.Time
	reconnects  uint64
}

// New validates the options and returns a client ready to Run.
func New(opts Options) (*Client, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	return &Client{opts: opts}, nil
}

// Run replicates until ctx is cancelled. It returns ctx.Err() on
// cancellation; any other exit is a bug.
func (c *Client) Run(ctx context.Context) error {
	bo := newBackoff(c.opts.backoffMin, c.opts.backoffMax)
	for {
		err := c.connectOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, errGone) {
			// Too far behind the ring: drop the state and take a fresh
			// checkpoint on the next attempt.
			c.opts.Logf("replica: fell out of retention at epoch %d, re-bootstrapping", c.epoch())
			c.st = nil
		}
		c.setStatus(false)

		// A clean stream end (leader restart) is not a fault spiral: the
		// ladder resets instead of doubling.
		wait := bo.next(err == nil || errors.Is(err, io.EOF))
		c.opts.Logf("replica: stream ended: %v (reconnecting in %s)", err, wait)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		c.reconnects++
	}
}

func (c *Client) epoch() uint64 {
	if c.st == nil {
		return 0
	}
	return c.st.Epoch
}

// connectOnce performs one bootstrap (if needed) plus one stream
// session, returning when the stream drops.
func (c *Client) connectOnce(ctx context.Context) error {
	if c.st == nil {
		if err := c.bootstrap(ctx); err != nil {
			return err
		}
	}
	return c.stream(ctx)
}

// bootstrap fetches the leader's latest checkpoint and publishes it.
func (c *Client) bootstrap(ctx context.Context) error {
	resp, err := c.get(ctx, "/wal/checkpoint")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: checkpoint: leader answered %s", resp.Status)
	}
	st, err := wal.NewRecordReader(resp.Body).NextCheckpoint()
	if err != nil {
		return fmt.Errorf("replica: checkpoint: %w", err)
	}
	c.st = st
	c.noteLeaderEpoch(resp.Header)
	if err := c.publish(); err != nil {
		c.st = nil
		return err
	}
	c.opts.Logf("replica: bootstrapped at epoch %d (%d live nodes)", st.Epoch, st.Live)
	return nil
}

// stream follows the frame stream from the current epoch, applying and
// publishing every frame.
func (c *Client) stream(ctx context.Context) error {
	resp, err := c.get(ctx, "/wal/stream?from="+strconv.FormatUint(c.st.Epoch, 10))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errGone
	default:
		return fmt.Errorf("replica: stream: leader answered %s", resp.Status)
	}
	c.noteLeaderEpoch(resp.Header)
	c.setStatus(true)
	rr := wal.NewRecordReader(resp.Body)
	for {
		f, err := rr.NextFrame()
		if err != nil {
			// io.EOF: leader shut down cleanly. ErrTorn: connection cut
			// mid-record. Either way the prefix already applied is intact —
			// reconnect and resume from c.st.Epoch.
			return err
		}
		if err := c.st.Apply(f); err != nil {
			// A chain mismatch or epoch gap means this stream is not a
			// valid continuation of our state (leader restarted from an
			// older epoch, or sent damaged data). Re-bootstrap rather than
			// serve a topology we cannot verify.
			c.opts.Logf("replica: frame rejected: %v", err)
			c.st = nil
			return err
		}
		if f.Epoch > c.leaderEpoch {
			c.leaderEpoch = f.Epoch
		}
		c.lastFrame = time.Now()
		if err := c.publish(); err != nil {
			return err
		}
	}
}

// publish pushes the current state into the follower service as an
// immutable snapshot and refreshes the replica status.
func (c *Client) publish() error {
	st := c.st
	if err := c.opts.Service.PublishFrozen(st.Epoch, st.Points, st.Alive, st.Live, st.Base, st.Spanner); err != nil {
		return fmt.Errorf("replica: publish epoch %d: %w", st.Epoch, err)
	}
	if c.opts.onApply != nil {
		c.opts.onApply(st)
	}
	c.setStatus(true)
	return nil
}

func (c *Client) noteLeaderEpoch(h http.Header) {
	if e, err := strconv.ParseUint(h.Get(wal.EpochHeader), 10, 64); err == nil && e > c.leaderEpoch {
		c.leaderEpoch = e
	}
}

func (c *Client) setStatus(connected bool) {
	epoch := c.epoch()
	leader := c.leaderEpoch
	if leader < epoch {
		leader = epoch
	}
	age := -1.0
	if !c.lastFrame.IsZero() {
		age = time.Since(c.lastFrame).Seconds()
	}
	c.opts.Service.SetReplicaStatus(service.ReplicaStatus{
		Role:                "follower",
		Connected:           connected,
		Epoch:               epoch,
		LeaderEpoch:         leader,
		Lag:                 leader - epoch,
		LastFrameAgeSeconds: age,
		Reconnects:          c.reconnects,
	})
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.opts.Leader+path, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}
