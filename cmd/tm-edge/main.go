// Command tm-edge runs a Traffic Manager edge proxy: the cloud-edge
// network stack component that probes every available tunnel
// destination, steers new flows onto the best path, and fails over at
// RTT timescales when a prefix is withdrawn (§3.2).
//
// Destinations come either from repeated -dest flags or by resolving a
// service from a bootstrap TM-PoP:
//
//	tm-edge -resolve 127.0.0.1:4000 -service teleconf
//	tm-edge -dest 127.0.0.1:4000,1,anycast -dest 127.0.0.1:4001,1,gre
//
// With -demo, the edge generates a probe flow and prints per-second
// status lines (selected destination, per-destination RTTs) — a live
// miniature of Fig. 10. With -trace-sample, failover chains are traced
// end to end (probe silence → dead → reselect → repin, stitched with
// the PoP's re-home via trace context on the wire) and log lines carry
// the failover's trace ID.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/netip"
	"os"
	"strings"
	"time"

	"painter/internal/daemon"
	"painter/internal/obs/alert"
	"painter/internal/tm"
	"painter/internal/tmproto"
)

func main() {
	var dests daemon.DestList
	var (
		resolve  = flag.String("resolve", "", "bootstrap TM-PoP address to resolve destinations from")
		service  = flag.String("service", "default", "service name for resolution")
		probeIv  = flag.Duration("probe-interval", 50*time.Millisecond, "probe cadence per destination")
		demo     = flag.Bool("demo", false, "send a demo flow and print per-second status")
		duration = flag.Duration("duration", 0, "exit after this long (0 = run until signal)")
		metrics  = flag.String("metrics-listen", "", "HTTP address for /metrics, /debug/obs, /debug/obs/history, /alerts, /debug/trace (empty = off)")
		sampleIv = flag.Duration("history-interval", time.Second, "history sampling and alert evaluation cadence")
		sockets  = flag.Int("sockets", 0, "SO_REUSEPORT datapath sockets (0 = one per CPU, capped)")
		batch    = flag.Int("batch", 0, "datagrams per syscall (0 = 32; 1 = portable single-packet path)")
	)
	flag.Var(&dests, "dest", "tunnel destination (addr:port,popid[,anycast][,gre]); repeatable")
	of := daemon.RegisterFlags(flag.CommandLine)
	flag.Parse()

	rt := of.Start("tm-edge")
	logger := rt.Logger
	cfg := tm.DefaultEdgeConfig()
	cfg.ProbeInterval = *probeIv
	cfg.Destinations = dests
	cfg.Sockets = *sockets
	cfg.Batch = *batch
	cfg.Obs = rt.Reg
	cfg.Tracer = rt.Tracer
	cfg.OnEvent = func(ev tm.Event) {
		switch ev.Kind {
		case tm.EventSelected:
			prev := "(none)"
			if ev.Prev != nil {
				prev = fmt.Sprintf("%s:%d", ev.Prev.Addr, ev.Prev.Port)
			}
			logger.Info("selected destination", append([]any{
				slog.String("dest", fmt.Sprintf("%s:%d", ev.Dest.Addr, ev.Dest.Port)),
				slog.Uint64("pop", uint64(ev.Dest.PoP)),
				slog.Duration("rtt", ev.RTT.Truncate(time.Microsecond)),
				slog.String("prev", prev),
			}, daemon.TraceAttrs(ev.Trace)...)...)
		case tm.EventDestDead:
			logger.Warn("destination dead", append([]any{
				slog.String("dest", fmt.Sprintf("%s:%d", ev.Dest.Addr, ev.Dest.Port)),
				slog.Uint64("pop", uint64(ev.Dest.PoP)),
				slog.Duration("silence", ev.SinceLastReply.Truncate(time.Millisecond)),
			}, daemon.TraceAttrs(ev.Trace)...)...)
		case tm.EventDestAlive:
			logger.Info("destination alive",
				slog.String("dest", fmt.Sprintf("%s:%d", ev.Dest.Addr, ev.Dest.Port)),
				slog.Uint64("pop", uint64(ev.Dest.PoP)),
				slog.Duration("rtt", ev.RTT.Truncate(time.Microsecond)))
		}
	}
	if *demo {
		cfg.OnReturn = func(flow tmproto.FlowKey, payload []byte) {
			logger.Info("return traffic", "flow", flow.String(), "bytes", len(payload))
		}
	}

	edge, err := tm.NewEdge(cfg)
	if err != nil {
		logger.Error("start failed", "err", err)
		os.Exit(1)
	}
	if *resolve != "" {
		if err := edge.ResolveFrom(*resolve, *service, 3*time.Second); err != nil {
			logger.Error("resolve failed", "from", *resolve, "err", err)
			os.Exit(1)
		}
		logger.Info("resolved destinations",
			"count", len(edge.Status()), "service", *service, "from", *resolve)
	}
	if len(edge.Status()) == 0 {
		logger.Error("no destinations: use -dest or -resolve")
		os.Exit(1)
	}
	logger.Info("up", "addr", edge.Addr(), "destinations", len(edge.Status()),
		"tracing", rt.Tracer != nil)

	// Blackout detection: judge the probe-blackout rule over the sampled
	// counters — replies flatlining while sends advance means every
	// destination went silent at once.
	eng := alert.NewEngine(rt.Hist, []alert.Rule{alert.ProbeBlackoutRule(5, 2)},
		alert.Options{Logger: logger, Tracer: rt.Tracer})
	rt.ServeMetrics(*metrics, map[string]http.Handler{"/alerts": alert.StatesHandler(eng)}, edge)

	stop := make(chan struct{})
	rt.Sample(*sampleIv, stop, func(tick uint64) { eng.Eval(tick) })
	if *duration > 0 {
		go func() { time.Sleep(*duration); close(stop) }()
	}

	if *demo {
		go func() {
			flow := tmproto.FlowKey{
				Proto: 17,
				Src:   netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("203.0.113.1"),
				SrcPort: 40000, DstPort: 443,
			}
			t := time.NewTicker(time.Second)
			defer t.Stop()
			i := 0
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					i++
					_ = edge.Send(flow, []byte(fmt.Sprintf("demo-%d", i)))
					var b strings.Builder
					for _, ds := range edge.Status() {
						state := "down"
						if ds.Alive {
							state = ds.RTT.Truncate(100 * time.Microsecond).String()
						}
						sel := " "
						if ds.Selected {
							sel = "*"
						}
						fmt.Fprintf(&b, " %s[PoP%d %s]", sel, ds.Dest.PoP, state)
					}
					logger.Info("status", "dests", b.String())
				}
			}
		}()
	}

	daemon.WaitSignal(stop)
	s := edge.Stats()
	logger.Info("done",
		"probes", s.ProbesSent, "replies", s.RepliesRcvd,
		"data_sent", s.DataSent, "data_rcvd", s.DataRcvd,
		"failovers", s.Failovers, "repins", s.RepinnedFlows)
	rt.Shutdown(edge)
}
