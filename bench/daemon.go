package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is what one harness invocation owns on disk and in the process
// table: the repository root, a scratch directory under bench/out, the
// daemon binary built into it, and every child still running. cleanup
// kills the children and removes the scratch directory; main runs it on
// every exit path, including SIGINT.
type env struct {
	root    string // repository root (parent of bench/)
	benchD  string // bench/ itself
	scratch string // bench/out/run-*, removed on exit
	bin     string // the topoctld binary, once built

	mu       sync.Mutex
	children map[*daemon]struct{}
	dirSeq   int
}

// newEnv locates the repository from the working directory (the harness
// runs as `go run -C bench .`, so that is bench/ or the root) and creates
// the scratch directory.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := wd
	if _, err := os.Stat(filepath.Join(root, "cmd", "topoctld")); err != nil {
		root = filepath.Dir(wd)
		if _, err := os.Stat(filepath.Join(root, "cmd", "topoctld")); err != nil {
			return nil, fmt.Errorf("cannot find the topoctl repository from %s (run as `go run -C bench .` from its root)", wd)
		}
	}
	e := &env{root: root, benchD: filepath.Join(root, "bench"), children: map[*daemon]struct{}{}}
	out := filepath.Join(e.benchD, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if e.scratch, err = os.MkdirTemp(out, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) cleanup() {
	e.mu.Lock()
	live := make([]*daemon, 0, len(e.children))
	for d := range e.children {
		live = append(live, d)
	}
	e.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	os.RemoveAll(e.scratch)
}

// dir returns a fresh empty directory under the scratch directory.
func (e *env) dir(prefix string) (string, error) {
	e.mu.Lock()
	e.dirSeq++
	d := filepath.Join(e.scratch, fmt.Sprintf("%s-%d", prefix, e.dirSeq))
	e.mu.Unlock()
	return d, os.MkdirAll(d, 0o755)
}

// buildDaemon compiles cmd/topoctld from the checkout's source.
func (e *env) buildDaemon() error {
	if e.bin != "" {
		return nil
	}
	bin := filepath.Join(e.scratch, "topoctld")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/topoctld")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/topoctld: %v\n%s", err, out)
	}
	e.bin = bin
	return nil
}

// daemon is one running child process: a `topoctld serve`, or the
// harness's own traced server.
type daemon struct {
	e       *env
	cmd     *exec.Cmd
	logPath string
	started time.Time
	base    string // http://127.0.0.1:port
	// ready is spawn → first /readyz 200.
	ready time.Duration
	// exited closes once the process has been reaped.
	exited chan struct{}
}

// start launches cmd as a tracked child with its stderr kept in a log
// file under the scratch directory.
func (e *env) start(cmd *exec.Cmd) (*daemon, error) {
	logf, err := os.CreateTemp(e.scratch, "child-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{e: e, cmd: cmd, logPath: logf.Name(), exited: make(chan struct{})}
	cmd.Stderr = logf
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.children[d] = struct{}{}
	e.mu.Unlock()
	go func() {
		cmd.Wait()
		e.forget(d)
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) stderr() string {
	log, _ := os.ReadFile(d.logPath) // best effort: it only decorates an error
	return string(log)
}

// freeAddr reserves a loopback port by binding :0 and releasing it; the
// daemon re-binds it a moment later.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts the daemon on the given netio file (and WAL directory, when
// walDir is non-empty) with otherwise default flags, and returns once
// /readyz answers 200. The listener only opens after the spanner, labels
// and WAL genesis (or recovery) are done, so the wait is the boot time.
func (e *env) spawn(pointsFile, walDir string) (*daemon, error) {
	if err := e.buildDaemon(); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-addr", addr, "-in", pointsFile}
	if walDir != "" {
		args = append(args, "-wal", walDir, "-fsync", "always", "-checkpoint-every", "64")
	}
	d, err := e.start(exec.Command(e.bin, args...))
	if err != nil {
		return nil, err
	}
	d.base = "http://" + addr
	start := d.started
	// Poll cheaply: a refused dial costs the booting daemon nothing, and
	// /readyz is only asked once the listener exists.
	deadline := start.Add(2 * time.Minute)
	for {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.ready = time.Since(start)
					return d, nil
				}
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("topoctld exited during boot:\n%s", d.stderr())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("topoctld not ready after %v", time.Since(start))
		}
	}
}

func (e *env) forget(d *daemon) {
	e.mu.Lock()
	delete(e.children, d)
	e.mu.Unlock()
}

// kill sends SIGKILL — the crash the WAL must survive — and waits for the
// process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// rssPeakMB reads the daemon's peak resident set (VmHWM) from /proc.
func (d *daemon) rssPeakMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// vmHWM returns a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stats is the slice of GET /stats the harness reads.
type stats struct {
	Version         uint64  `json:"version"`
	Nodes           int     `json:"nodes"`
	StretchBound    float64 `json:"stretch_bound"`
	StretchEstimate float64 `json:"stretch_estimate"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheEvictions  uint64  `json:"cache_evictions"`
	LabelHits       uint64  `json:"label_hits"`
	LabelFallbacks  uint64  `json:"label_fallbacks"`
}

func getStats(base string) (stats, error) {
	var st stats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// hitShares is the route-cache and label hit share of the requests served
// between two readings.
func (after stats) hitShares(before stats) (cache, labels float64) {
	return share(after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses),
		share(after.LabelHits-before.LabelHits, after.LabelFallbacks-before.LabelFallbacks)
}

// share is hits ÷ (hits + misses) of a counter pair over an interval.
func share(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
