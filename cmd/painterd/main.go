// Command painterd runs the Advertisement Orchestrator as a service:
// it owns a deployment (simulated substrate), computes advertisement
// configurations on demand, evaluates them, and exposes the HTTP
// control API defined in internal/controlapi:
//
//	GET  /status            deployment + orchestrator summary
//	POST /solve             {"budget":25,"reuse_km":3000,"iterations":2}
//	GET  /config            current configuration (prefix → peerings)
//	GET  /evaluate          ground-truth benefit of the current config
//	GET  /reports           per-iteration learning reports
//	GET  /tenants           multi-tenant control plane (PUT/GET/DELETE
//	                        /tenants/{id}, plus /status and /reports)
//	GET  /metrics           Prometheus text exposition, every tenant's
//	                        series labeled tenant="<id>"
//	GET  /debug/obs         merged obs snapshot as JSON
//	GET  /debug/trace       flight recorder as Chrome trace-event JSON
//	GET  /debug/pprof/      runtime profiles (with -pprof)
//
// Computed configurations can also be announced over BGP to a route
// server (-route-server host:port) — the "advertisement installation"
// arrow of Fig. 4; pair with cmd/route-server.
//
// The daemon always runs the multi-tenant control plane: a
// tenant.Manager reconciles declarative tenant specs (PUT
// /tenants/{id}) into private worlds each churned by its own fault
// schedule and tracked by its own continuous re-solve controller
// (internal/core.Controller). -continuous is sugar that submits one
// bootstrap tenant mirroring the daemon's own scale and seed before
// serving:
//
//	painterd -scale small -continuous -tick 500ms -chaos-ticks 200
//
// On SIGINT/SIGTERM the manager drains first — each tenant's in-flight
// sync completes, its final evaluation is flushed, and one summary
// line is logged per tenant — then the HTTP listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"painter/internal/controlapi"
	"painter/internal/daemon"
	"painter/internal/experiments"
	"painter/internal/obs"
	"painter/internal/obs/alert"
	"painter/internal/tenant"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:8080", "HTTP control address")
		scale       = flag.String("scale", "peering", "environment scale: small, peering, azure")
		seed        = flag.Int64("seed", 7, "world seed")
		routeServer = flag.String("route-server", "", "optional BGP route server to announce configs to (host:port)")
		continuous  = flag.Bool("continuous", false, "submit a bootstrap tenant running the continuous re-solve controller")
		tick        = flag.Duration("tick", 2*time.Second, "tick interval of the bootstrap tenant")
		chaosSeed   = flag.Int64("chaos-seed", 1, "fault-schedule seed for the bootstrap tenant")
		chaosTicks  = flag.Int("chaos-ticks", 120, "fault-schedule length in ticks for the bootstrap tenant")
		budget      = flag.Int("budget", 0, "prefix budget for the bootstrap tenant (0 = 10% of peerings, min 5)")
	)
	of := daemon.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := of.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger.Info("building environment", "scale", *scale, "seed", *seed)
	env, err := experiments.NewEnv(sc, *seed)
	if err != nil {
		logger.Error("environment build failed", "err", err)
		os.Exit(1)
	}
	tracer := of.Tracer("painterd")
	mgr := tenant.NewManager(tenant.Params{Logger: logger, Trace: tracer})
	srv := controlapi.New(env, *routeServer)
	srv.Trace = tracer
	srv.Pprof = of.Pprof
	srv.Tenants = mgr

	if *continuous {
		tickMs := int(tick.Milliseconds())
		if tickMs < 1 {
			tickMs = 1
		}
		// The bootstrap tenant reuses the daemon's scale and seed, so its
		// world is the same topology and deployment as the control API's —
		// but private, since netsim forbids event churn racing queries.
		spec := tenant.Spec{
			Scale:  *scale,
			Seed:   *seed,
			Budget: *budget,
			TickMs: tickMs,
			Chaos:  tenant.ChaosSpec{Profile: "default", Seed: *chaosSeed, Ticks: *chaosTicks},
		}
		if _, err := mgr.Apply("bootstrap", spec, 0); err != nil {
			logger.Error("bootstrap tenant rejected", "err", err)
			os.Exit(1)
		}
		// Build it before serving so the first scrape already sees it.
		mgr.Reconcile()
	}

	st := env.Deploy.Stats()
	logger.Info("ready",
		"pops", st.PoPs, "peerings", st.Peerings, "transit", st.Transit,
		"ugs", env.UGs.Len(), "listen", *listen,
		"tracing", tracer != nil, "pprof", of.Pprof)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("http server failed", "err", err)
			os.Exit(1)
		}
	}()

	daemon.WaitSignal(nil)
	logger.Info("shutting down", "tenants", mgr.Store().Len())
	// Snapshot the tenant registries AND alert states before teardown:
	// Close() force-resolves every alert, so what was firing at the
	// moment of the signal is only visible from this capture.
	finalRegs := append([]*obs.Registry{srv.Obs(), env.World.Obs()}, mgr.Registries()...)
	finalAlerts := mgr.Alerts()
	// Drain the reconcile loop and every tenant (in-flight syncs finish,
	// final evaluations flush, one summary line per tenant) before the
	// HTTP listener closes — scrapes during the drain still work.
	mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	_ = srv.Close()
	// Final flush: tenant counters, then whatever alerts were live when
	// the signal hit.
	of.Flush(tracer, logger, finalRegs...)
	for _, ta := range finalAlerts {
		for _, sv := range ta.States {
			if sv.State != alert.StateFiring && sv.State != alert.StatePending {
				continue
			}
			fmt.Fprintf(os.Stderr, "alert tenant=%s rule=%s series=%s state=%s since_tick=%d value=%g\n",
				ta.Tenant, sv.Rule, sv.Series, sv.State, sv.SinceTick, sv.Value)
		}
	}
}
