package obs

// Lightweight metrics HTTP serving for daemons. Each daemon that is not
// already running an HTTP control surface (route-server, tm-edge,
// tm-pop) starts one of these next to its data plane; painterd gets the
// same endpoints for free from the controlapi mux.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// MetricsServer is a running metrics listener.
type MetricsServer struct {
	srv  *http.Server
	addr string
}

// StartServerWith listens on addr and serves newMuxWith(cfg): /metrics
// (Prometheus text), /debug/obs (JSON snapshot), /debug/trace and the
// optional extras. Pass "host:0" to bind an ephemeral port; Addr reports
// the bound address.
func StartServerWith(addr string, cfg MuxConfig) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listen %q: %w", addr, err)
	}
	srv := &http.Server{Handler: newMuxWith(cfg), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{srv: srv, addr: ln.Addr().String()}, nil
}

// Addr returns the bound listen address.
func (m *MetricsServer) Addr() string { return m.addr }

// Shutdown stops the listener, waiting briefly for in-flight scrapes.
func (m *MetricsServer) Shutdown() error {
	if m == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return m.srv.Shutdown(ctx)
}

// DumpSnapshot writes the merged snapshot of the registries as indented
// JSON — the daemons' final flush on graceful shutdown.
func DumpSnapshot(w io.Writer, regs ...*Registry) error {
	snaps := make([]RegistrySnapshot, 0, len(regs))
	for _, r := range regs {
		if r != nil {
			snaps = append(snaps, r.Snapshot())
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(MergeSnapshots(snaps...))
}
