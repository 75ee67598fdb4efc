// Command topoctld is the topology query daemon: it loads (or generates) a
// network deployment, builds and incrementally maintains its t-spanner,
// and serves concurrent route / neighborhood / statistics queries over
// HTTP while mutation batches stream in. The /analyze family answers
// operational what-ifs over the same frozen snapshots: failure impact
// (/analyze/impact), k-hop neighborhoods as Cytoscape JSON
// (/analyze/around), per-hop route explanations (/analyze/route), and
// base-vs-spanner divergence (/analyze/divergence).
//
// Subcommands:
//
//	serve   start the daemon (leader; with -wal, durable and replicable)
//	follow  start a read-only follower replicating a leader's WAL
//	bench   ad-hoc zipfian route load against a running daemon (numbers of
//	        record come from the bench/ module, not from here)
//
// Examples:
//
//	topoctld serve -addr :7077 -n 512 -seed 1
//	topoctld serve -addr :7077 -in net.topo.gz -t 1.5
//	topoctld serve -addr :7077 -wal /var/lib/topoctl/wal -fsync always
//	topoctld follow -addr :7078 -leader http://127.0.0.1:7077
//	topoctld bench -addr http://127.0.0.1:7077 -clients 32 -duration 5s
//	topoctld bench -self -n 512 -clients 32 -duration 5s -mutate 50
//
// The serving core is internal/service: an RCU-style snapshot of the
// topology is swapped atomically after every mutation batch, so reads
// never block on writers; see that package for the design.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling side listener, see startPprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/netio"
	"topoctl/internal/replica"
	"topoctl/internal/service"
	"topoctl/internal/ubg"
	"topoctl/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topoctld: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "follow":
		err = cmdFollow(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "topoctld: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: topoctld <serve|follow|bench> [flags]
  serve   [-addr :7077] [-in FILE(.gz) | -n N -d D -deg DEG -seed S] [-t T] [-radius R] [-cache C]
          [-wal DIR] [-fsync always|interval|never] [-checkpoint-every N] [-pprof ADDR]
          start the daemon; without -in a uniform deployment of N nodes is generated.
          With -wal every mutation batch is logged durably and recovered on restart,
          and followers may replicate from GET /wal/checkpoint + /wal/stream
  follow  [-addr :7078] -leader URL [-cache C]
          start a read-only follower that replicates the leader's WAL stream;
          /readyz answers 503 until the first snapshot has been applied
  bench   [-addr URL | -self [serve flags]] [-clients C] [-duration D] [-zipf S] [-scheme NAME] [-mutate OPS/S]
          ad-hoc driver for an already-running daemon: C concurrent zipfian clients, QPS +
          latency percentiles, requested vs achieved churn (numbers of record: bench/README.md)`)
}

// startPprof starts the net/http/pprof side listener when addr is
// non-empty. Profiles are served from http.DefaultServeMux (where the
// pprof import registers) on a dedicated port, so the main API handler —
// an explicit mux — never exposes them. The listener runs for the process
// lifetime; profiling a shutting-down daemon is not supported.
func startPprof(addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			log.Printf("pprof listener: %v", err)
		}
	}()
	return nil
}

// serveFlags configures the daemon core (shared by serve and bench -self;
// the listen address is a serve-only flag, bench has its own -addr).
type serveFlags struct {
	in        string
	n, d      int
	deg       float64
	seed      int64
	t         float64
	radius    float64
	cache     int
	sample    int
	labels    bool
	labelsMax int
}

func addServeFlags(fs *flag.FlagSet) *serveFlags {
	sf := &serveFlags{}
	fs.StringVar(&sf.in, "in", "", "load the deployment from this netio file (.gz supported) instead of generating")
	fs.IntVar(&sf.n, "n", 256, "generated node count")
	fs.IntVar(&sf.d, "d", 2, "generated dimension")
	fs.Float64Var(&sf.deg, "deg", 8, "generated expected base degree")
	fs.Int64Var(&sf.seed, "seed", 1, "generation seed")
	fs.Float64Var(&sf.t, "t", 1.5, "spanner stretch bound (> 1)")
	fs.Float64Var(&sf.radius, "radius", 1, "connectivity radius of the maintained base graph")
	fs.IntVar(&sf.cache, "cache", 8192, "route cache capacity per snapshot")
	fs.IntVar(&sf.sample, "stretch-sample", 256, "base-edge sample size for the /stats stretch estimate")
	fs.BoolVar(&sf.labels, "labels", true, "maintain the hub-label distance oracle (exact /distance answers without a search)")
	fs.IntVar(&sf.labelsMax, "labels-max", 0, "largest deployment the oracle is built for (label builds grow ~quadratically; 0 = library default, negative = no cap)")
	return sf
}

// points loads or generates the deployment. The daemon maintains its own
// radius-model base graph over the point set, so only positions are taken
// from an input file (its edge list documents how the instance was
// generated, not what the daemon must serve).
func (sf *serveFlags) points() ([]geom.Point, error) {
	if sf.in != "" {
		inst, err := netio.ReadFrom(sf.in)
		if err != nil {
			return nil, err
		}
		return inst.Points, nil
	}
	side := ubg.DensitySide(sf.n, sf.d, sf.radius, sf.deg)
	return geom.GeneratePoints(geom.CloudConfig{
		Kind: geom.CloudUniform, N: sf.n, Dim: sf.d, Side: side, Seed: sf.seed,
	}), nil
}

// newService builds the serving core from the flags.
func (sf *serveFlags) newService() (*service.Service, error) {
	pts, err := sf.points()
	if err != nil {
		return nil, err
	}
	// service.New infers the dimension from the points; -d only matters
	// for generation.
	return service.New(pts, service.Options{
		T:             sf.t,
		Radius:        sf.radius,
		Dim:           sf.d,
		CacheSize:     sf.cache,
		StretchSample: sf.sample,
		Seed:          sf.seed,
		Labels:        sf.labels,
		LabelsMaxN:    sf.labelsMax,
	})
}

// newHTTPServer wraps a handler with the timeouts a long-lived daemon
// needs: slow or idle clients must not pin goroutines and file
// descriptors forever. ReadTimeout is header-only via ReadHeaderTimeout;
// no WriteTimeout because /wal/stream connections are deliberately
// long-lived.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// walFlags are the durability flags on serve.
type walFlags struct {
	dir       string
	fsync     string
	ckptEvery int
}

func addWalFlags(fs *flag.FlagSet) *walFlags {
	wf := &walFlags{}
	fs.StringVar(&wf.dir, "wal", "", "write-ahead-log directory; empty disables durability")
	fs.StringVar(&wf.fsync, "fsync", "always", "WAL fsync policy: always|interval|never")
	fs.IntVar(&wf.ckptEvery, "checkpoint-every", 64, "full-snapshot checkpoint every N logged frames")
	return wf
}

// buildLeader constructs the serving core, durable when -wal is set: an
// existing log recovers the pre-crash topology (ignoring -in/-n), a fresh
// directory bootstraps a genesis checkpoint from the initial deployment.
// The returned leader is nil without -wal.
func buildLeader(sf *serveFlags, wf *walFlags) (*service.Service, *replica.Leader, http.Handler, error) {
	if wf.dir == "" {
		svc, err := sf.newService()
		return svc, nil, svc.Handler(), err
	}
	policy, err := wal.ParseSyncPolicy(wf.fsync)
	if err != nil {
		return nil, nil, nil, err
	}
	rec, recovered, err := wal.Open(wal.Options{Dir: wf.dir, Sync: policy, CheckpointEvery: wf.ckptEvery})
	if err != nil {
		return nil, nil, nil, err
	}
	// recovered is nil for a fresh directory; Genesis below then
	// initializes the log before serve starts, so no mutation can publish
	// ahead of it.
	ld := replica.NewLeader(rec, recovered)
	opts := service.Options{
		T: sf.t, Radius: sf.radius, Dim: sf.d,
		CacheSize: sf.cache, StretchSample: sf.sample, Seed: sf.seed,
		Labels: sf.labels, LabelsMaxN: sf.labelsMax,
		OnPublish: func(snap *service.Snapshot, applied []service.Op, touched []int) {
			ld.OnPublish(snap, applied, touched)
			// Fail-stop: the hook runs before the batch's reply is
			// released, so exiting here acknowledges no mutation the log
			// did not record. A restart recovers the last durable epoch.
			if err := ld.Err(); err != nil {
				log.Fatalf("wal: epoch %d not logged, stopping: %v", snap.Version, err)
			}
		},
	}
	var svc *service.Service
	if recovered != nil {
		// The log is the source of truth: its geometry parameters win over
		// the flags, and the version sequence continues at the recovered
		// epoch.
		side := recovered.Clone()
		opts.InitialVersion = recovered.Epoch
		eng, err := dynamic.Restore(side.Points, side.Alive, side.Base.Thaw(), side.Spanner.Thaw(),
			dynamic.Options{T: recovered.T, Radius: recovered.Radius, Dim: recovered.Dim})
		if err != nil {
			rec.Close(nil)
			return nil, nil, nil, fmt.Errorf("wal recovery: %w", err)
		}
		svc, err = service.NewFromEngine(eng, opts)
		if err != nil {
			rec.Close(nil)
			return nil, nil, nil, err
		}
		log.Printf("recovered epoch %d from %s (%d live nodes)", recovered.Epoch, wf.dir, recovered.Live)
	} else {
		pts, err := sf.points()
		if err != nil {
			rec.Close(nil)
			return nil, nil, nil, err
		}
		svc, err = service.New(pts, opts)
		if err != nil {
			rec.Close(nil)
			return nil, nil, nil, err
		}
		snap := svc.Snapshot()
		dim := sf.d
		if len(snap.Points) > 0 {
			dim = snap.Points[0].Dim()
		}
		if err := ld.Genesis(sf.t, sf.radius, dim, snap); err != nil {
			svc.Close()
			rec.Close(nil)
			return nil, nil, nil, err
		}
		log.Printf("bootstrapped WAL in %s at epoch %d", wf.dir, snap.Version)
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("GET /wal/checkpoint", rec.HandleCheckpoint)
	mux.HandleFunc("GET /wal/stream", rec.HandleStream)
	return svc, ld, mux, nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7077", "listen address")
	pprofAddr := fs.String("pprof", "", "pprof side-listener address (e.g. 127.0.0.1:6060); empty disables profiling")
	sf := addServeFlags(fs)
	wf := addWalFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startPprof(*pprofAddr); err != nil {
		return err
	}
	svc, ld, handler, err := buildLeader(sf, wf)
	if err != nil {
		return err
	}
	// Shutdown order matters: the service stops its writer first, then the
	// leader writes the final checkpoint and closes the recorder.
	closeAll := func() error {
		svc.Close()
		if ld != nil {
			return ld.Close()
		}
		return nil
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeAll()
		return err
	}
	st := svc.Stats()
	log.Printf("serving on %s: %d nodes, %d base links, %d spanner links (t=%.3g, max degree %d)",
		ln.Addr(), st.Nodes, st.BaseEdges, st.SpannerEdges, st.StretchBound, st.MaxDegree)
	if sf.labels && !st.LabelsEnabled {
		log.Printf("hub-label oracle skipped: %d nodes exceed the build cap (label builds grow ~quadratically; raise with -labels-max, silence with -labels=false)", st.Nodes)
	}

	srv := newHTTPServer(handler)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		closeAll()
		return err
	case sig := <-sigc:
		log.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		serr := srv.Shutdown(ctx)
		if cerr := closeAll(); cerr != nil {
			return cerr
		}
		return serr
	}
}

func cmdFollow(args []string) error {
	fs := flag.NewFlagSet("follow", flag.ExitOnError)
	addr := fs.String("addr", ":7078", "listen address")
	leader := fs.String("leader", "", "leader base URL (required), e.g. http://127.0.0.1:7077")
	cache := fs.Int("cache", 8192, "route cache capacity per snapshot")
	sample := fs.Int("stretch-sample", 256, "base-edge sample size for the /stats stretch estimate")
	pprofAddr := fs.String("pprof", "", "pprof side-listener address (e.g. 127.0.0.1:6060); empty disables profiling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *leader == "" {
		return fmt.Errorf("follow: -leader is required")
	}
	if err := startPprof(*pprofAddr); err != nil {
		return err
	}
	fol := service.NewFollower(service.Options{CacheSize: *cache, StretchSample: *sample})
	defer fol.Close()
	cl, err := replica.New(replica.Options{
		Leader:  *leader,
		Service: fol,
		Logf:    log.Printf,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); cl.Run(ctx) }()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("following %s on %s (read-only; /readyz gates on the first applied snapshot)", *leader, ln.Addr())

	srv := newHTTPServer(fol.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		cancel()
		<-done
		return err
	case sig := <-sigc:
		log.Printf("received %v, shutting down", sig)
		cancel()
		<-done
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		return srv.Shutdown(sctx)
	}
}
