package daemon

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"painter/internal/obs"
	"painter/internal/obs/history"
	"painter/internal/obs/span"
)

// Runtime is the lifecycle route-server, tm-edge and tm-pop share: the
// process logger, tracer and registry, a history store sampling that
// registry, the optional metrics listener, and the shutdown flush.
type Runtime struct {
	Logger *slog.Logger
	Tracer *span.Tracer
	Reg    *obs.Registry
	Hist   *history.Store
	flags  *ObsFlags
	ms     *obs.MetricsServer
}

// Start builds the runtime of one daemon process. A bad -log-format or
// -log-level prints the error and exits 2.
func (f *ObsFlags) Start(process string) *Runtime {
	logger, err := f.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt := &Runtime{Logger: logger, Tracer: f.Tracer(process), Reg: obs.NewRegistry(), flags: f}
	rt.Hist = history.New(history.Config{
		Regs: func() []*obs.Registry { return []*obs.Registry{rt.Reg} },
	})
	return rt
}

// Sample samples the registry into the history store every interval,
// so /debug/obs/history serves windowed counters, not just the latest
// totals. Each sample's tick goes to eval when it is non-nil. Sampling
// stops when stop closes (a nil stop never closes).
func (rt *Runtime) Sample(interval time.Duration, stop <-chan struct{}, eval func(tick uint64)) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				tick := rt.Hist.Sample()
				if eval != nil {
					eval(tick)
				}
			}
		}
	}()
}

// ServeMetrics serves /metrics, /debug/obs, /debug/trace and
// /debug/obs/history, plus extra, on addr; an empty addr serves
// nothing. If the listener cannot start, it closes c, logs the error
// and exits 1.
func (rt *Runtime) ServeMetrics(addr string, extra map[string]http.Handler, c io.Closer) {
	if addr == "" {
		return
	}
	handlers := map[string]http.Handler{"/debug/obs/history": history.StoreHandler(rt.Hist)}
	for path, h := range extra {
		handlers[path] = h
	}
	ms, err := obs.StartServerWith(addr, obs.MuxConfig{
		Regs: []*obs.Registry{rt.Reg}, Trace: rt.Tracer, Pprof: rt.flags.Pprof, Extra: handlers,
	})
	if err != nil {
		_ = c.Close()
		rt.Logger.Error("metrics listen failed", "err", err)
		os.Exit(1)
	}
	rt.ms = ms
	rt.Logger.Info("metrics up", "url", "http://"+ms.Addr()+"/metrics", "pprof", rt.flags.Pprof)
}

// Shutdown stops the metrics listener, closes c, and flushes the trace
// and the registry.
func (rt *Runtime) Shutdown(c io.Closer) {
	_ = rt.ms.Shutdown()
	_ = c.Close()
	rt.flags.Flush(rt.Tracer, rt.Logger, rt.Reg)
}

// WaitSignal blocks until SIGINT or SIGTERM arrives or stop closes (a
// nil stop never closes).
func WaitSignal(stop <-chan struct{}) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
	case <-stop:
	}
}

// Flush writes the tracer's flight recorder to -trace-dump and then one
// merged JSON snapshot of regs to stderr, so a supervisor harvesting
// logs keeps the last counters.
func (f *ObsFlags) Flush(t *span.Tracer, logger *slog.Logger, regs ...*obs.Registry) {
	f.dumpTrace(t, logger)
	_ = obs.DumpSnapshot(os.Stderr, regs...)
}
