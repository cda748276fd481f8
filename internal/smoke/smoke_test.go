// Package smoke builds and briefly runs the repo's binaries, asserting
// they come up, serve, and shut down cleanly — the end-to-end checks a
// unit suite never exercises.
package smoke

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// repoRoot locates the module root from this file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not at %s: %v", root, err)
	}
	return root
}

// buildBinary compiles a package into dir and returns the binary path.
func buildBinary(t *testing.T, root, dir, pkg string) string {
	t.Helper()
	name := filepath.Base(pkg)
	out := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", out, "./"+pkg)
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, b)
	}
	return out
}

// freePort reserves a localhost port and releases it for the child.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

func TestPainterdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	root := repoRoot(t)
	bin := buildBinary(t, root, t.TempDir(), "cmd/painterd")
	port := freePort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)

	cmd := exec.Command(bin, "-listen", addr, "-scale", "small", "-seed", "3")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	defer func() {
		_ = cmd.Process.Kill()
		<-done
	}()

	// Poll /status until the control API answers.
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			t.Fatalf("painterd exited early: %v\n%s", err, out.String())
		default:
		}
		resp, err := http.Get("http://" + addr + "/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /status: %s\n%s", resp.Status, out.String())
			}
			return
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("painterd never served /status: %v\n%s", lastErr, out.String())
}

func TestRouteServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	root := repoRoot(t)
	bin := buildBinary(t, root, t.TempDir(), "cmd/route-server")
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))

	cmd := exec.Command(bin, "-listen", addr, "-log-interval", "0")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// Wait until it accepts BGP connections, then ask for a clean stop.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("route-server did not exit cleanly on SIGTERM: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("route-server ignored SIGTERM\n%s", out.String())
	}
}

// TestFailoverExampleSmoke runs the Fig. 10 failover timeline, a live
// UDP edge/PoP pair failing over, through the figure harness.
func TestFailoverExampleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	root := repoRoot(t)
	bin := buildBinary(t, root, t.TempDir(), "cmd/painter-bench")

	cmd := exec.Command(bin, "-exp", "fig10")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("painter-bench -exp fig10 failed: %v\n%s", err, out.String())
		}
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("painter-bench -exp fig10 did not finish in 60s\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Fig 10 — failover") {
		t.Errorf("painter-bench -exp fig10 printed no Fig 10 table:\n%s", out.String())
	}
}
