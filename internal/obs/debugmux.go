package obs

// Debug-surface wiring shared by the daemons: the metrics mux extended
// with the flight-recorder trace export and (optionally) pprof. Kept
// separate from expose.go so the metrics-only surface stays
// dependency-light.

import (
	"net/http"
	"net/http/pprof"

	"painter/internal/obs/span"
)

// MuxConfig configures the daemons' introspection mux.
type MuxConfig struct {
	// Regs are the metric registries merged into /metrics and
	// /debug/obs.
	Regs []*Registry
	// Trace, when non-nil, backs GET /debug/trace with the tracer's
	// flight recorder (Chrome trace-event JSON). A nil tracer still
	// serves a valid empty trace, so the endpoint is always mounted.
	Trace *span.Tracer
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Extra mounts additional handlers by pattern — how daemons attach
	// surfaces built on top of obs (history, alerts) without obs
	// importing them.
	Extra map[string]http.Handler
}

// newMuxWith returns a mux serving GET /metrics, GET /debug/obs,
// GET /debug/trace, (when enabled) /debug/pprof/, and any Extra
// handlers.
func newMuxWith(cfg MuxConfig) *http.ServeMux {
	mux := newMux(cfg.Regs...)
	mux.Handle("/debug/trace", span.Handler(cfg.Trace))
	if cfg.Pprof {
		MountPprof(mux)
	}
	for pattern, h := range cfg.Extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// MountPprof registers the net/http/pprof handlers on mux (explicitly,
// rather than via the package's DefaultServeMux side effect, so daemons
// only expose profiling when asked to).
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
