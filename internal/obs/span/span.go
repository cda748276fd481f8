// Package span is the causal-tracing counterpart to package obs:
// dependency-free spans with parent links and key/value attrs, built
// for the same three constraints as the metrics layer.
//
//   - Deterministic: trace and span IDs come from a seeded splitmix64
//     stream, so two runs with the same seed and the same span-creation
//     order export byte-identical traces. Tests pin the clock too
//     (Config.Clock) and diff whole exports.
//   - Nil-safe: a nil *Tracer and a nil *Span are the no-op
//     implementations. Unsampled roots return nil, so a disabled or
//     sampled-out call site pays one nil check per operation and zero
//     allocations.
//
// Finished spans land in a bounded ring buffer (the flight recorder,
// see ring.go) holding the last N spans per process; export.go renders
// the ring as Chrome/Perfetto trace-event JSON.
package span

import (
	"sync"
	"sync/atomic"
	"time"
)

// golden is the splitmix64 increment (2^64 / phi).
const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a bijective avalanche over the
// sequential counter state, so IDs look random but replay exactly.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A returns an Attr; it keeps instrumentation call sites short.
func A(k, v string) Attr { return Attr{Key: k, Value: v} }

// Context is the wire-portable identity of a span: enough for a remote
// process to create children that stitch into the same trace.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real span. The ID stream
// never emits zero, so the zero Context is the canonical "no trace".
func (c Context) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// Config tunes a Tracer.
type Config struct {
	// Seed initializes the deterministic ID stream. Two tracers with
	// equal seeds emit identical ID sequences.
	Seed uint64
	// Sample keeps one in Sample root spans (head-based: the decision
	// is made at the root and inherited by every child, so traces are
	// never half-recorded). Values <= 1 keep every root.
	Sample int
	// Ring is the flight-recorder capacity in spans (default
	// DefaultRing).
	Ring int
	// Process names this process in exports (painterd, tm-edge, ...).
	Process string
	// Clock returns nanoseconds; nil means time.Now().UnixNano. Tests
	// inject a fake for byte-identical exports.
	Clock func() int64
}

// Tracer mints spans and owns the flight recorder. The zero value is
// not usable; use New. A nil Tracer is the no-op tracer.
type Tracer struct {
	idState atomic.Uint64 // splitmix64 counter state
	roots   atomic.Uint64 // root spans started, for head sampling
	sample  uint64
	clock   func() int64
	rec     *Recorder
	process string
	// base attrs are stamped onto every span this tracer mints (set by
	// Derive; empty on tracers built with New).
	base []Attr
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	t := &Tracer{
		sample:  1,
		clock:   cfg.Clock,
		process: cfg.Process,
		rec:     newRecorder(cfg.Ring),
	}
	if cfg.Sample > 1 {
		t.sample = uint64(cfg.Sample)
	}
	if t.clock == nil {
		t.clock = func() int64 { return time.Now().UnixNano() }
	}
	t.idState.Store(cfg.Seed)
	return t
}

// Derive returns a tracer that shares t's flight recorder, process
// name, clock, and sampling rate, but draws span IDs from its own
// stream (seeded by seed) and stamps every span it mints with attrs —
// the per-tenant tracing handle: N derived tracers feed one
// /debug/trace surface with each tenant's spans labeled. The seed must
// differ per derived tracer so ID streams do not collide; the caller
// picks it deterministically (a hash of the tenant ID). Nil-safe: a nil
// receiver derives a nil (no-op) tracer.
func (t *Tracer) Derive(seed uint64, attrs ...Attr) *Tracer {
	if t == nil {
		return nil
	}
	d := &Tracer{
		sample:  t.sample,
		clock:   t.clock,
		rec:     t.rec,
		process: t.process,
		base:    append([]Attr(nil), attrs...),
	}
	d.idState.Store(seed)
	return d
}

// nextID draws the next nonzero ID from the seeded stream.
func (t *Tracer) nextID() uint64 {
	for {
		if id := mix64(t.idState.Add(golden)); id != 0 {
			return id
		}
	}
}

// Process returns the configured process name ("" on nil).
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	return t.process
}

// Recorder exposes the flight recorder (nil on a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// StartRoot begins a new trace. Sampled-out roots return nil, which
// every Span method accepts, so callers instrument unconditionally.
func (t *Tracer) StartRoot(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	n := t.roots.Add(1)
	if t.sample > 1 && (n-1)%t.sample != 0 {
		return nil
	}
	id := t.nextID()
	return t.newSpan(name, id, id, 0, attrs)
}

// FromRemote begins a span whose parent lives in another process,
// stitching this process into the caller's trace. An invalid context
// degrades to StartRoot (with its sampling decision).
func (t *Tracer) FromRemote(ctx Context, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	if !ctx.Valid() {
		return t.StartRoot(name, attrs...)
	}
	return t.newSpan(name, ctx.TraceID, t.nextID(), ctx.SpanID, attrs)
}

func (t *Tracer) newSpan(name string, traceID, spanID, parentID uint64, attrs []Attr) *Span {
	s := &Span{
		tracer:   t,
		name:     name,
		traceID:  traceID,
		spanID:   spanID,
		parentID: parentID,
		startNs:  t.clock(),
	}
	s.attrs = append(s.attrs, t.base...)
	s.attrs = append(s.attrs, attrs...)
	return s
}

// Span is one timed operation in a trace. A nil Span is the no-op
// span: every method returns immediately.
type Span struct {
	tracer   *Tracer
	name     string
	traceID  uint64
	spanID   uint64
	parentID uint64
	startNs  int64

	mu       sync.Mutex
	attrs    []Attr
	finished bool
}

// Context returns the span identity for wire propagation (zero on nil,
// which remote ends treat as "no trace").
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{TraceID: s.traceID, SpanID: s.spanID}
}

// StartChild begins a child span. Children inherit the root's sampling
// decision for free: an unsampled root is nil, and nil children of nil
// parents cost one branch.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s.traceID, s.tracer.nextID(), s.spanID, attrs)
}

// SetAttr adds (or appends) a key/value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.finished {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// Finish stamps the duration and hands the span to the flight
// recorder. Second and later calls are no-ops.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	attrs := s.attrs
	s.mu.Unlock()
	end := s.tracer.clock()
	s.tracer.rec.add(Record{
		TraceID:  s.traceID,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Name:     s.name,
		StartNs:  s.startNs,
		DurNs:    end - s.startNs,
		Attrs:    attrs,
	})
}
