package smoke

import (
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"painter/internal/obs"
)

// daemon is one running binary under test with captured output. done
// is closed (after err is set) when the process exits, so any number
// of waiters can observe it.
type daemon struct {
	name string
	cmd  *exec.Cmd
	out  *strings.Builder
	done chan struct{}
	err  error
}

func startDaemon(t *testing.T, name, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{name: name, cmd: exec.Command(bin, args...), out: &strings.Builder{}, done: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill()
		<-d.done
	})
	return d
}

// stopGracefully sends SIGTERM and asserts a zero exit with a final
// obs snapshot flushed to stderr.
func (d *daemon) stopGracefully(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: signal: %v", d.name, err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			t.Fatalf("%s did not exit cleanly on SIGTERM: %v\n%s", d.name, d.err, d.out.String())
		}
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		t.Fatalf("%s ignored SIGTERM\n%s", d.name, d.out.String())
	}
	if !strings.Contains(d.out.String(), `"counters"`) {
		t.Errorf("%s exit output has no obs snapshot flush:\n%s", d.name, d.out.String())
	}
}

// scrapeMetrics polls url until it answers, then parses the Prometheus
// text exposition.
func scrapeMetrics(t *testing.T, d *daemon, url string) map[string]float64 {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			t.Fatalf("%s exited early: %v\n%s", d.name, d.err, d.out.String())
		default:
		}
		resp, err := http.Get(url)
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: GET %s = %s", d.name, url, resp.Status)
			}
			samples, err := obs.ParseText(resp.Body)
			if err != nil {
				t.Fatalf("%s: parse %s: %v", d.name, url, err)
			}
			return samples
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never served %s: %v\n%s", d.name, url, lastErr, d.out.String())
	return nil
}

// fleet is the four daemons, each serving its /metrics: a tm-pop, a
// tm-edge probing it, a route-server and painterd.
type fleet struct {
	pop, edge, rs, pd             *daemon
	popURL, edgeURL, rsURL, pdURL string
}

// startFleet builds and starts the four daemons. The pop serves before
// the edge starts, since the edge resolves its destinations through it.
func startFleet(t *testing.T) fleet {
	t.Helper()
	root := repoRoot(t)
	dir := t.TempDir()
	popBin := buildBinary(t, root, dir, "cmd/tm-pop")
	edgeBin := buildBinary(t, root, dir, "cmd/tm-edge")
	rsBin := buildBinary(t, root, dir, "cmd/route-server")
	pdBin := buildBinary(t, root, dir, "cmd/painterd")
	var f fleet

	popAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	popMetrics := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	f.pop = startDaemon(t, "tm-pop", popBin,
		"-listen", popAddr, "-pop-id", "1", "-dest", popAddr+",1",
		"-stats-interval", "0", "-metrics-listen", popMetrics)
	f.popURL = "http://" + popMetrics + "/metrics"
	scrapeMetrics(t, f.pop, f.popURL)

	edgeMetrics := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	f.edge = startDaemon(t, "tm-edge", edgeBin,
		"-resolve", popAddr, "-service", "default",
		"-probe-interval", "20ms", "-metrics-listen", edgeMetrics)
	f.edgeURL = "http://" + edgeMetrics + "/metrics"

	rsAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	rsMetrics := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	f.rs = startDaemon(t, "route-server", rsBin,
		"-listen", rsAddr, "-log-interval", "0", "-metrics-listen", rsMetrics)
	f.rsURL = "http://" + rsMetrics + "/metrics"

	pdAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	f.pd = startDaemon(t, "painterd", pdBin, "-listen", pdAddr, "-scale", "small", "-seed", "3")
	f.pdURL = "http://" + pdAddr + "/metrics"
	return f
}

// TestDaemonMetricsSmoke runs all four daemons, scrapes /metrics on
// each, and checks the TM pair plus route-server shut down gracefully
// with a final snapshot flush.
func TestDaemonMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	f := startFleet(t)
	popSamples := scrapeMetrics(t, f.pop, f.popURL)
	if _, ok := popSamples["tm_pop_active_flows"]; !ok {
		t.Errorf("tm-pop exposition missing tm_pop_active_flows: %v", popSamples)
	}

	samples := scrapeMetrics(t, f.edge, f.edgeURL)
	// The edge probes its destination continuously; within a few rounds
	// the probe counters and RTT histogram must move.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && samples["tm_edge_probe_replies_total"] == 0 {
		time.Sleep(100 * time.Millisecond)
		samples = scrapeMetrics(t, f.edge, f.edgeURL)
	}
	if samples["tm_edge_probes_sent_total"] == 0 {
		t.Error("tm-edge sent no probes")
	}
	if samples["tm_edge_probe_replies_total"] == 0 {
		t.Error("tm-edge saw no probe replies")
	}
	if samples["tm_edge_probe_rtt_ms_count"] == 0 {
		t.Error("tm-edge probe RTT histogram empty")
	}
	if samples["tm_edge_destinations_alive"] == 0 {
		t.Error("tm-edge shows no alive destinations")
	}

	rsSamples := scrapeMetrics(t, f.rs, f.rsURL)
	for _, name := range []string{"routeserver_sessions", "routeserver_rib_prefixes", "routeserver_damped_prefixes"} {
		if _, ok := rsSamples[name]; !ok {
			t.Errorf("route-server exposition missing %s", name)
		}
	}

	pdSamples := scrapeMetrics(t, f.pd, f.pdURL)
	if _, ok := pdSamples["netsim_day"]; !ok {
		t.Errorf("painterd exposition missing netsim_day: %v", pdSamples)
	}
	resp, err := http.Get(strings.TrimSuffix(f.pdURL, "/metrics") + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("painterd GET /debug/obs = %s", resp.Status)
	}

	// Graceful shutdown: SIGTERM → clean exit with a snapshot flush.
	f.edge.stopGracefully(t)
	f.pop.stopGracefully(t)
	f.rs.stopGracefully(t)
	f.pd.stopGracefully(t)
}
