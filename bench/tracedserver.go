package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"topoctl/internal/netio"
	"topoctl/internal/service"
)

// The served half of a traced run lives in a process of its own, as the
// real daemon does: with client and server in one process the two share a
// scheduler and a loopback round trip costs a third of what it costs
// between processes, which would hide most of what the nethttp rows are
// there to show. The harness therefore re-executes itself as the server:
// same binary, the same service construction as `topoctld serve`, plus the
// span middleware and the wrapped WAL hook.

// tracedServerMain is that server process. It builds the stack from the
// points file (durable when walDir is set), prints its base URL on stdout
// once it listens, serves until stdin closes, and writes its spans and
// counts to spansOut.
func tracedServerMain(pointsFile, walDir, spansOut string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench traced server:", err)
		return 1
	}
	inst, err := netio.ReadFrom(pointsFile)
	if err != nil {
		return fail(err)
	}
	tr := newTracer()
	tr.next.Store(serverIDs)
	var svc *service.Service
	var dur *durable
	var bytes0, syncs0 int64
	if walDir != "" {
		dur, err = newDurable(tr, inst.Points, walDir, "", func(*durable) (int64, int64, int64) {
			return tr.block(1), 0, tr.curReq.Load()
		})
		if err != nil {
			return fail(err)
		}
		svc, bytes0, syncs0 = dur.svc, dur.fs.bytes.Load(), dur.fs.syncs.Load()
	} else if svc, err = service.New(inst.Points, svcOptions()); err != nil {
		return fail(err)
	}
	base, stop, err := serveTraced(tr, svc)
	if err != nil {
		return fail(err)
	}
	fmt.Println(base)
	io.Copy(io.Discard, os.Stdin) // the harness closes our stdin when it is done
	stop()
	if dur != nil {
		// What the WAL asked of the device after genesis.
		tr.count("wal.bytes", float64(dur.fs.bytes.Load()-bytes0))
		tr.count("wal.syncs", float64(dur.fs.syncs.Load()-syncs0))
		dur.close()
	} else {
		svc.Close()
	}
	if err := tr.write(spansOut); err != nil {
		return fail(err)
	}
	return 0
}

// tracedServer is the harness's handle on that process.
type tracedServer struct {
	d     *daemon
	base  string
	stdin io.WriteCloser
	spans string
}

func startTracedServer(e *env, pointsFile, walDir string) (*tracedServer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := e.dir("server")
	if err != nil {
		return nil, err
	}
	s := &tracedServer{spans: filepath.Join(dir, "spans.jsonl")}
	cmd := exec.Command(exe, "-tracedserver", "-points", pointsFile, "-wal", walDir, "-spans", s.spans)
	if s.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if s.d, err = e.start(cmd); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		s.d.kill()
		return nil, fmt.Errorf("traced server did not come up: %v\n%s", err, s.d.stderr())
	}
	s.base = strings.TrimSpace(line)
	return s, nil
}

// stop ends the server and merges what it recorded into tr.
func (s *tracedServer) stop(tr *tracer) error {
	s.stdin.Close()
	<-s.d.exited
	if !s.d.cmd.ProcessState.Success() {
		return fmt.Errorf("traced server failed:\n%s", s.d.stderr())
	}
	return tr.merge(s.spans)
}
