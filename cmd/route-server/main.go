// Command route-server runs the PoP-side BGP route server: it accepts
// sessions (e.g. from painterd installing advertisement configurations),
// maintains a RIB, applies route-flap damping, and periodically logs its
// view — doubling as a RIS-like collector for observing churn.
//
//	route-server -listen 127.0.0.1:1790 &
//	painterd -route-server 127.0.0.1:1790
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"painter/internal/daemon"
	"painter/internal/routeserver"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:1790", "BGP listen address")
		localAS  = flag.Uint("as", 64999, "local AS number")
		damping  = flag.Bool("damping", true, "enable RFC 2439 route-flap damping")
		logIv    = flag.Duration("log-interval", 10*time.Second, "RIB summary logging interval (0 = off)")
		metrics  = flag.String("metrics-listen", "", "HTTP address for /metrics, /debug/obs, /debug/obs/history, /debug/trace (empty = off)")
		sampleIv = flag.Duration("history-interval", time.Second, "time-series history sampling cadence")
	)
	of := daemon.RegisterFlags(flag.CommandLine)
	flag.Parse()

	rt := of.Start("route-server")
	logger := rt.Logger
	cfg := routeserver.Config{
		ListenAddr: *listen,
		LocalAS:    uint16(*localAS),
		BGPID:      0x0a00f311,
		HoldTime:   30 * time.Second,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
		Damping: *damping,
		Obs:     rt.Reg,
		Tracer:  rt.Tracer,
	}
	srv, err := routeserver.New(cfg)
	if err != nil {
		logger.Error("start failed", "err", err)
		os.Exit(1)
	}
	logger.Info("listening", "as", *localAS, "addr", srv.Addr(),
		"damping", *damping, "tracing", rt.Tracer != nil)

	// The history store serves windowed churn counters (update/withdraw
	// rates over the ring, not just totals).
	rt.Sample(*sampleIv, nil, nil)
	rt.ServeMetrics(*metrics, nil, srv)

	if *logIv > 0 {
		go func() {
			t := time.NewTicker(*logIv)
			defer t.Stop()
			for range t.C {
				st := srv.Stats()
				logger.Info("rib summary",
					"prefixes", st.Prefixes, "sessions", st.Sessions,
					"updates", st.Updates, "withdraws", st.Withdraws,
					"suppressed", st.SuppressedAnnounces)
				for _, p := range srv.RIB().Prefixes() {
					if e, ok := srv.RIB().Best(p); ok {
						fmt.Printf("  %-18s via peer %d path %v\n", p, e.Peer, e.ASPath)
					}
				}
			}
		}()
	}

	daemon.WaitSignal(nil)
	logger.Info("shutting down")
	rt.Shutdown(srv)
}
