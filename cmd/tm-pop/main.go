// Command tm-pop runs a Traffic Manager PoP node: it terminates UDP
// tunnels from TM-Edges, answers keepalive probes, NATs client flows
// through the Known Flows table, serves the echo service, and answers
// destination-resolution queries with the destination set the
// Advertisement Orchestrator installed.
//
// Destinations are supplied as repeated -dest flags:
//
//	tm-pop -listen 127.0.0.1:4000 -pop-id 1 \
//	       -dest 127.0.0.1:4000,1,anycast -dest 127.0.0.1:4001,1,gre
package main

import (
	"flag"
	"os"
	"time"

	"painter/internal/daemon"
	"painter/internal/tm"
)

func main() {
	var dests daemon.DestList
	var (
		listen   = flag.String("listen", "127.0.0.1:4000", "UDP listen address")
		popID    = flag.Uint("pop-id", 1, "PoP identifier, logged at startup")
		flowTTL  = flag.Duration("flow-ttl", 5*time.Minute, "idle flow retention")
		statsIv  = flag.Duration("stats-interval", 10*time.Second, "stats logging interval (0 = off)")
		metrics  = flag.String("metrics-listen", "", "HTTP address for /metrics, /debug/obs, /debug/obs/history, /debug/trace (empty = off)")
		sampleIv = flag.Duration("history-interval", time.Second, "time-series history sampling cadence")
		sockets  = flag.Int("sockets", 0, "SO_REUSEPORT datapath sockets (0 = one per CPU, capped)")
		batch    = flag.Int("batch", 0, "datagrams per syscall (0 = 32; 1 = portable single-packet path)")
		workers  = flag.Int("workers", 0, "service worker-pool size (0 = max(2, NumCPU))")
	)
	flag.Var(&dests, "dest", "destination to advertise to edges (addr:port,popid[,anycast][,gre]); repeatable")
	of := daemon.RegisterFlags(flag.CommandLine)
	flag.Parse()

	rt := of.Start("tm-pop")
	logger := rt.Logger
	pop, err := tm.NewPoP(tm.PoPConfig{
		ListenAddr:   *listen,
		Destinations: dests,
		FlowTTL:      *flowTTL,
		Obs:          rt.Reg,
		Tracer:       rt.Tracer,
		Sockets:      *sockets,
		Batch:        *batch,
		Workers:      *workers,
	})
	if err != nil {
		logger.Error("start failed", "err", err)
		os.Exit(1)
	}
	logger.Info("listening", "pop", *popID, "addr", pop.Addr(),
		"destinations", len(dests), "tracing", rt.Tracer != nil)

	rt.Sample(*sampleIv, nil, nil)
	rt.ServeMetrics(*metrics, nil, pop)

	if *statsIv > 0 {
		go func() {
			t := time.NewTicker(*statsIv)
			defer t.Stop()
			for range t.C {
				s := pop.Stats()
				logger.Info("stats",
					"data_in", s.DataIn, "data_out", s.DataOut,
					"probes", s.Probes, "resolves", s.Resolves,
					"flows", s.ActiveFlows, "malformed", s.Malformed)
			}
		}()
	}

	daemon.WaitSignal(nil)
	logger.Info("shutting down")
	rt.Shutdown(pop)
}
