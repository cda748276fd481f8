// Package obs is a dependency-free metrics subsystem: atomic counters
// and gauges, a fixed-bucket log-scale histogram with lock-free updates
// and mergeable snapshots, a registry with cheap label sets, and
// Prometheus text-format exposition.
//
// The package is built around a nil-safe no-op default: every
// constructor on a nil *Registry returns a nil metric, and every method
// on a nil metric returns immediately. An instrumented hot path that
// was never wired to a registry therefore costs exactly one predictable
// branch per call — no allocation, no lock, no indirect call.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is a single key=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n; n is unsigned, so a counter only grows.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 metric. The zero value is ready to
// use; a nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// kind discriminates registry entries.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric instance (a metric family member: one
// name plus one concrete label set).
type entry struct {
	name   string // family name
	key    string // name + rendered labels; unique per instance
	help   string
	kind   kind
	labels []Label

	counter *Counter
	gauge   *Gauge
	gfn     func() float64
	hist    *Histogram
}

// Registry holds named metrics. A nil *Registry is the no-op default:
// all constructors return nil metrics whose methods no-op.
type Registry struct {
	mu      sync.Mutex
	entries []*entry          // registration order, for stable exposition
	byKey   map[string]*entry // key -> entry
	// base labels are appended to every instance at exposition time
	// (writeProm, Snapshot); instrumented code never sees them. They
	// scope a whole registry — e.g. tenant="x" on a tenant's world.
	base []Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// renderKey builds the canonical instance key "name{k1="v1",k2="v2"}".
// Labels are sorted by key so permuted label slices address the same
// instance.
func renderKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the existing entry for key, or registers a new one via
// make. It panics when the same key was registered with a different
// metric kind — that is always a programming error.
func (r *Registry) lookup(name, help string, k kind, labels []Label, mk func(*entry)) *entry {
	key := renderKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", key, k, e.kind))
		}
		return e
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	e := &entry{name: name, key: key, help: help, kind: k, labels: ls}
	mk(e)
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns (creating if needed) the counter name with the given
// labels. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels, func(e *entry) {
		e.counter = &Counter{}
	}).counter
}

// Gauge returns (creating if needed) the gauge name with the given
// labels. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels, func(e *entry) {
		e.gauge = &Gauge{}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time. Re-registering the same key replaces fn. No-op on a
// nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.lookup(name, help, kindGaugeFunc, labels, func(e *entry) {})
	r.mu.Lock()
	e.gfn = fn
	r.mu.Unlock()
}

// Histogram returns (creating if needed) the histogram name with the
// given labels. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels, func(e *entry) {
		e.hist = newHistogram()
	}).hist
}

// SetBaseLabels sets labels stamped onto every metric instance of this
// registry at exposition time. Instrument registration is unaffected
// (the same entries are returned with or without base labels), so it
// may be called after instruments exist — typically once, right after
// the registry's owner learns its identity. An entry's own label with
// the same key wins over a base label. No-op on a nil registry.
func (r *Registry) SetBaseLabels(labels ...Label) {
	if r == nil {
		return
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	r.mu.Lock()
	r.base = ls
	r.mu.Unlock()
}

// exposeLabels merges the registry's base labels with an entry's own
// labels, entry labels winning on key collision.
func (r *Registry) exposeLabels(ls []Label) []Label {
	r.mu.Lock()
	base := r.base
	r.mu.Unlock()
	if len(base) == 0 {
		return ls
	}
	out := make([]Label, 0, len(base)+len(ls))
	for _, b := range base {
		shadowed := false
		for _, l := range ls {
			if l.Key == b.Key {
				shadowed = true
				break
			}
		}
		if !shadowed {
			out = append(out, b)
		}
	}
	return append(out, ls...)
}

// snapshotEntries returns a stable copy of the entry slice.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, len(r.entries))
	copy(out, r.entries)
	return out
}
