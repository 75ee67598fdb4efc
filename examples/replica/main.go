// Replica: durable topology mutations and a streaming follower.
//
// A serving daemon that loses its topology on restart is not operable:
// after a crash every client sees a freshly generated network with new
// versions and new routes. This example runs the durability layer
// (internal/wal + internal/replica) in process. A leader service logs
// every mutation batch as a sealed delta frame in a write-ahead log; a
// follower bootstraps from the latest checkpoint over HTTP, streams the
// live frame tail, and serves reads on an identical topology. The leader
// is then killed without any shutdown path and recovered from the log
// alone — same epoch, same topology, routes intact.
//
//	go run ./examples/replica
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"topoctl/internal/geom"
	"topoctl/internal/replica"
	"topoctl/internal/routing"
	"topoctl/internal/service"
	"topoctl/internal/ubg"
	"topoctl/internal/wal"
)

func main() {
	if err := run(os.Stdout, 96); err != nil {
		log.Fatal(err)
	}
}

// openLeader opens (or recovers) the WAL in dir and builds the leader
// service on top of it, through the one boot recipe `topoctld serve -wal`
// runs too.
func openLeader(dir string, pts []geom.Point) (*service.Service, *replica.Leader, error) {
	return replica.OpenLeader(replica.LeaderConfig{
		WAL:     wal.Options{Dir: dir, Sync: wal.SyncAlways, CheckpointEvery: 8},
		Service: service.Options{T: 1.5},
		Points:  func() ([]geom.Point, error) { return pts, nil },
	})
}

// serveLeader exposes the service plus the two replication endpoints.
func serveLeader(svc *service.Service, ld *replica.Leader) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: ld.Handler(svc.Handler())}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func run(w io.Writer, n int) error {
	dir, err := os.MkdirTemp("", "topoctl-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	side := ubg.DensitySide(n, 2, 1, 8)
	pts := geom.GeneratePoints(geom.CloudConfig{
		Kind: geom.CloudUniform, N: n, Dim: 2, Side: side, Seed: 29,
	})
	svc, ld, err := openLeader(dir, pts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "leader up: %d nodes, WAL in %s (fsync per mutation, checkpoint every 8 frames)\n", n, dir)

	// Churn: every batch becomes one durable epoch before its reply.
	for i := 0; i < 12; i++ {
		if _, err := svc.Mutate([]service.Op{
			{Kind: service.OpMove, ID: i, Point: geom.Point{side / 2, side / 4}},
		}); err != nil {
			return err
		}
	}
	epoch := ld.State().Epoch
	fmt.Fprintf(w, "12 mutation batches logged: epoch %d, every reply implied durability\n\n", epoch)

	srv, base, err := serveLeader(svc, ld)
	if err != nil {
		return err
	}

	// A follower: bootstrap from the checkpoint, stream the frame tail.
	fol := service.NewFollower(service.Options{})
	cl, err := replica.New(replica.Options{Leader: base, Service: fol})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); cl.Run(ctx) }()

	// More churn while the follower streams, then wait for it to catch up.
	for i := 0; i < 10; i++ {
		if _, err := svc.Mutate([]service.Op{
			{Kind: service.OpMove, ID: 20 + i, Point: geom.Point{side / 3, side / 3}},
		}); err != nil {
			return err
		}
	}
	epoch = ld.State().Epoch
	deadline := time.Now().Add(10 * time.Second)
	for {
		if snap := fol.Snapshot(); snap != nil && snap.Version >= epoch {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower never caught up to epoch %d", epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
	lres, err := svc.Route(routing.SchemeShortestPath, 0, n/2)
	if err != nil {
		return err
	}
	fres, err := fol.Route(routing.SchemeShortestPath, 0, n/2)
	if err != nil {
		return err
	}
	st := fol.Stats()
	fmt.Fprintf(w, "follower caught up at epoch %d (lag %d, %d reconnects)\n",
		st.Version, st.Replica.Lag, st.Replica.Reconnects)
	fmt.Fprintf(w, "route 0 -> %d: leader cost %.4f, follower cost %.4f, identical: %v\n\n",
		n/2, lres.Route.Cost, fres.Route.Cost, lres.Route.Cost == fres.Route.Cost)

	// Kill the leader the hard way: no final checkpoint, no Close. The
	// recorder's file handles just go away, as in a power cut (with
	// SyncAlways nothing acknowledged can be lost).
	cancel()
	<-done
	fol.Close()
	svc.Close()
	ld.Abandon()
	srv.Close()
	fmt.Fprintf(w, "leader killed without shutdown at epoch %d\n", epoch)

	// Recovery: open the same directory, replay checkpoint + log tail.
	svc2, ld2, err := openLeader(dir, nil)
	if err != nil {
		return err
	}
	defer func() { svc2.Close(); ld2.Close() }()
	rres, err := svc2.Route(routing.SchemeShortestPath, 0, n/2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recovered at epoch %d: route 0 -> %d cost %.4f, matches pre-crash: %v\n",
		ld2.State().Epoch, n/2, rres.Route.Cost, rres.Route.Cost == lres.Route.Cost)
	return nil
}
