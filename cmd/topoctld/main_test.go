package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"topoctl/internal/geom"
	"topoctl/internal/netio"
	"topoctl/internal/ubg"
)

// buildBinary compiles the daemon once per test into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "topoctld")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is a running daemon process and the unread rest of its stderr.
type daemon struct {
	cmd    *exec.Cmd
	stderr io.Reader
}

// daemons maps a running daemon's base URL to its process so tests can
// kill one abruptly (crash-recovery scenarios) or watch it exit.
var (
	daemonsMu sync.Mutex
	daemons   = map[string]daemon{}
)

// startDaemon launches the daemon on an ephemeral port and waits for
// /healthz, returning the base URL.
func startDaemon(t *testing.T, bin string, extra ...string) string {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-n", "64", "-seed", "1"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	})
	// The startup line reports the bound address: "serving on 127.0.0.1:NNN: ...".
	var addr string
	buf := make([]byte, 4096)
	deadline := time.Now().Add(10 * time.Second)
	var logged strings.Builder
	for addr == "" && time.Now().Before(deadline) {
		n, err := stderr.Read(buf)
		if n > 0 {
			logged.Write(buf[:n])
			if i := strings.Index(logged.String(), "serving on "); i >= 0 {
				rest := logged.String()[i+len("serving on "):]
				if j := strings.Index(rest, ":"); j >= 0 {
					if k := strings.Index(rest[j+1:], ":"); k >= 0 {
						addr = rest[:j+1+k]
					}
				}
			}
		}
		if err != nil {
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address; log so far:\n%s", logged.String())
	}
	base := "http://" + addr
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				daemonsMu.Lock()
				daemons[base] = daemon{cmd: cmd, stderr: stderr}
				daemonsMu.Unlock()
				return base
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy", base)
	return ""
}

// TestDaemonEndToEnd boots the real binary and exercises every endpoint,
// then drives it with a short bench run (the load generator doubles as an
// integration client).
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and boots a daemon")
	}
	bin := buildBinary(t)
	base := startDaemon(t, bin)

	get := func(path string) map[string]any {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	if st := get("/stats"); st["nodes"].(float64) != 64 {
		t.Fatalf("stats = %v", st)
	}
	if nb := get("/node/3/neighbors"); nb["id"].(float64) != 3 {
		t.Fatalf("neighbors = %v", nb)
	}
	resp, err := http.Post(base+"/route", "application/json",
		strings.NewReader(`{"src":0,"dst":11}`))
	if err != nil {
		t.Fatal(err)
	}
	var route map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&route); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || route["delivered"] != true {
		t.Fatalf("route: status %d body %v", resp.StatusCode, route)
	}

	// Mutate over the wire and watch the version advance.
	resp, err = http.Post(base+"/mutate", "application/json",
		strings.NewReader(`{"ops":[{"op":"move","id":5,"point":[1.0,1.0]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var mres map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mres["version"].(float64) != 2 || mres["applied"].(float64) != 1 {
		t.Fatalf("mutate = %v", mres)
	}

	// A short bench run against the live daemon.
	out, err := exec.Command(bin, "bench", "-addr", base,
		"-clients", "4", "-duration", "300ms", "-mutate", "20").CombinedOutput()
	if err != nil {
		t.Fatalf("bench: %v\n%s", err, out)
	}
	for _, want := range []string{"QPS", "p99", "delivered", "ops/s achieved of 20 requested"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("bench output missing %q:\n%s", want, out)
		}
	}
}

// TestDaemonServesGzipInstance round-trips a .topo.gz deployment through
// the daemon.
func TestDaemonServesGzipInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and boots a daemon")
	}
	// Generate a compressed instance with the sibling CLI's netio format.
	dir := t.TempDir()
	gz := filepath.Join(dir, "net.topo.gz")
	genInstance(t, gz, 48)

	bin := buildBinary(t)
	base := startDaemon(t, bin, "-in", gz)
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["nodes"].(float64) != 48 {
		t.Fatalf("daemon loaded %v nodes from %s, want 48", st["nodes"], gz)
	}
}

// TestDaemonWALRecoveryAndFollower boots the real binary with a WAL,
// mutates, kills it with SIGKILL, restarts on the same directory, and
// asserts the acknowledged version survived. A follower process then
// replicates the recovered leader; its /readyz flips from 503 to 200
// once the first snapshot is applied.
func TestDaemonWALRecoveryAndFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and boots daemons")
	}
	bin := buildBinary(t)
	walDir := t.TempDir()

	base := startDaemon(t, bin, "-wal", walDir, "-fsync", "always")
	resp, err := http.Post(base+"/mutate", "application/json",
		strings.NewReader(`{"ops":[{"op":"move","id":5,"point":[1.0,1.0]},{"op":"leave","id":9}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var mres map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	acked := mres["version"].(float64)
	if acked < 2 {
		t.Fatalf("mutate = %v", mres)
	}

	// SIGKILL: no shutdown path runs; the fsync-per-mutation log is all
	// that survives.
	killDaemon(t, base)

	base2 := startDaemon(t, bin, "-wal", walDir, "-fsync", "always")
	var st map[string]any
	resp, err = http.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st["version"].(float64) != acked {
		t.Fatalf("recovered at version %v, want acknowledged %v", st["version"], acked)
	}

	// A follower replicating the recovered leader.
	folBase := startFollowerDaemon(t, bin, base2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(folBase + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var fst map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&fst); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v, _ := fst["version"].(float64); v >= acked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached version %v", acked)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Ready now; and followers refuse writes.
	resp, err = http.Get(folBase + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /readyz after catch-up: %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(folBase+"/mutate", "application/json",
		strings.NewReader(`{"ops":[{"op":"move","id":1,"point":[0.5,0.5]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower POST /mutate: %d, want 503", resp.StatusCode)
	}
}

// TestDaemonWALFailStop removes a durable daemon's WAL directory from
// under it: the next checkpoint fails, and the daemon must stop before
// acknowledging the batch rather than keep answering 200 for mutations
// it can no longer log.
func TestDaemonWALFailStop(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and boots a daemon")
	}
	bin := buildBinary(t)
	walDir := filepath.Join(t.TempDir(), "wal")
	base := startDaemon(t, bin, "-wal", walDir, "-fsync", "always", "-checkpoint-every", "1")
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(base+"/mutate", "application/json",
			strings.NewReader(`{"ops":[{"op":"move","id":5,"point":[1.0,1.0]}]}`))
		if err != nil {
			continue // the daemon is gone: nothing was acknowledged
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("mutation %d acknowledged after the WAL directory vanished", i)
		}
	}
	d := takeDaemon(t, base)
	hung := time.AfterFunc(10*time.Second, func() { d.cmd.Process.Kill() })
	logged, _ := io.ReadAll(d.stderr)
	err := d.cmd.Wait()
	if !hung.Stop() {
		t.Fatalf("daemon kept running after a WAL failure; log:\n%s", logged)
	}
	if err == nil {
		t.Fatalf("daemon exited cleanly after a WAL failure; log:\n%s", logged)
	}
	if !strings.Contains(string(logged), "epoch 2") {
		t.Fatalf("exit log does not name the failed epoch:\n%s", logged)
	}
}

// killDaemon SIGKILLs the daemon serving base (looked up from the
// registry startDaemon maintains) and waits for the port to die.
func killDaemon(t *testing.T, base string) {
	t.Helper()
	d := takeDaemon(t, base)
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// takeDaemon removes the daemon serving base from the registry and
// returns it.
func takeDaemon(t *testing.T, base string) daemon {
	t.Helper()
	daemonsMu.Lock()
	d, ok := daemons[base]
	delete(daemons, base)
	daemonsMu.Unlock()
	if !ok {
		t.Fatalf("no daemon registered for %s", base)
	}
	return d
}

// startFollowerDaemon launches `topoctld follow` against leader and waits
// for /readyz — which must answer 503 (not refuse connections) while the
// follower is still bootstrapping.
func startFollowerDaemon(t *testing.T, bin, leader string) string {
	t.Helper()
	cmd := exec.Command(bin, "follow", "-addr", "127.0.0.1:0", "-leader", leader)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	})
	// "following URL on 127.0.0.1:NNN ..." reports the bound address.
	var addr string
	buf := make([]byte, 4096)
	deadline := time.Now().Add(10 * time.Second)
	var logged strings.Builder
	for addr == "" && time.Now().Before(deadline) {
		n, rerr := stderr.Read(buf)
		if n > 0 {
			logged.Write(buf[:n])
			if i := strings.Index(logged.String(), " on 127.0.0.1:"); i >= 0 {
				rest := logged.String()[i+len(" on "):]
				if j := strings.IndexAny(rest, " \n("); j >= 0 {
					addr = rest[:j]
				}
			}
		}
		if rerr != nil {
			break
		}
	}
	if addr == "" {
		t.Fatalf("follower never reported its address; log so far:\n%s", logged.String())
	}
	base := "http://" + addr
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			// 503 while bootstrapping and 200 after are both proof of life.
			if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable {
				return base
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("follower at %s never answered /readyz", base)
	return ""
}

// TestCLIErrors: bad usage must exit non-zero, with the named diagnostic on
// stderr where one is pinned. The removed shard flags are in the table so a
// stale deployment script fails loudly instead of silently serving unsharded.
func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a binary")
	}
	bin := buildBinary(t)
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{args: []string{"bogus"}},
		{args: []string{"serve", "-in", "/nonexistent.topo.gz"}},
		{args: []string{"serve", "-shards", "4"}, stderr: "flag provided but not defined: -shards"},
		{args: []string{"serve", "-portal-refresh", "2"}, stderr: "flag provided but not defined: -portal-refresh"},
		{args: []string{"bench", "-addr", "http://127.0.0.1:1", "-duration", "100ms"}},
		{args: []string{"bench", "-self", "-scheme", "warp"}},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("topoctld %v should fail", tc.args)
		} else if !strings.Contains(string(out), tc.stderr) {
			t.Errorf("topoctld %v: output lacks %q:\n%s", tc.args, tc.stderr, out)
		}
	}
}

// genInstance writes a small gzip-compressed instance using the library.
func genInstance(t *testing.T, path string, n int) {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: 5},
		ubg.Config{Alpha: 1, Model: ubg.ModelAll, Seed: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := netio.WriteTo(path, &netio.Instance{Points: inst.Points, G: inst.G, Alpha: 1}); err != nil {
		t.Fatal(err)
	}
}
