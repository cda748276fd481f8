// Package daemon holds the plumbing shared by the four standalone
// commands (painterd, route-server, tm-edge, tm-pop): structured
// logging flags, tracer construction with head sampling, the
// shutdown-time flight-recorder dump, and the TM pair's -dest flag. It
// exists so each main stays a thin flag-to-config adapter instead of
// repeating this wiring.
package daemon

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"painter/internal/obs/span"
)

// ObsFlags carries the values of the common observability flags.
type ObsFlags struct {
	LogFormat   string
	LogLevel    string
	TraceSample int
	TraceDump   string
	Pprof       bool
}

// RegisterFlags registers the shared observability flags on fs (the
// command's flag set; flag.CommandLine in practice) and returns the
// struct their values land in.
func RegisterFlags(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	fs.StringVar(&f.LogFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.IntVar(&f.TraceSample, "trace-sample", 0, "trace 1 in N root spans (0 = tracing off, 1 = all)")
	fs.StringVar(&f.TraceDump, "trace-dump", "", "write the flight recorder as Chrome trace JSON to this file on shutdown")
	fs.BoolVar(&f.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the HTTP listener")
	return f
}

// Logger builds the process logger from -log-format and -log-level and
// installs it as the slog default (so stray slog calls inherit it).
func (f *ObsFlags) Logger() (*slog.Logger, error) {
	var level slog.Level
	switch f.LogLevel {
	case "debug":
		level = slog.LevelDebug
	case "info", "":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("daemon: unknown -log-level %q (want debug|info|warn|error)", f.LogLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch f.LogFormat {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("daemon: unknown -log-format %q (want text|json)", f.LogFormat)
	}
	logger := slog.New(h)
	slog.SetDefault(logger)
	return logger, nil
}

// Tracer builds the process tracer from -trace-sample, or nil when
// tracing is off (nil tracers and spans are free no-ops throughout).
// The seed mixes the PID and start time so concurrently started daemons
// do not mint colliding trace IDs; tests wanting byte-identical exports
// construct their own tracer with a fixed Seed instead.
func (f *ObsFlags) Tracer(process string) *span.Tracer {
	if f.TraceSample <= 0 {
		return nil
	}
	return span.New(span.Config{
		Seed:    uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano()),
		Sample:  f.TraceSample,
		Process: process,
	})
}

// DumpTrace writes the tracer's flight recorder to -trace-dump at
// shutdown, logging the outcome. No-op when either is unset.
func (f *ObsFlags) DumpTrace(t *span.Tracer, logger *slog.Logger) {
	if f.TraceDump == "" || t == nil {
		return
	}
	if err := t.DumpFile(f.TraceDump); err != nil {
		logger.Error("trace dump failed", "path", f.TraceDump, "err", err)
		return
	}
	logger.Info("trace dumped", "path", f.TraceDump, "spans", t.Recorder().Total())
}

// TraceAttrs returns slog key/value pairs for a trace context, or nil
// when the context is zero — append to log calls so lines emitted under
// a span carry its IDs.
func TraceAttrs(c span.Context) []any {
	if !c.Valid() {
		return nil
	}
	return []any{
		slog.String("trace_id", fmt.Sprintf("%016x", c.TraceID)),
		slog.String("span_id", fmt.Sprintf("%016x", c.SpanID)),
	}
}
