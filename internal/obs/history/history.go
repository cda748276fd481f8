// Package history is the time-series tier of the observability stack:
// a fixed-capacity ring-buffer store sampled from obs.Registry
// snapshots on the controller tick. Where internal/obs answers "what is
// the value now", history answers "what has it been doing" — the memory
// the alert engine (internal/obs/alert) judges over.
//
// Determinism contract: with an injected clock and a deterministic
// sampling cadence (the tenant tick), two same-seed runs produce
// byte-identical series (Store.Bytes). Nothing in the store reads wall
// time unless the default clock is left in place, which daemons do and
// deterministic rigs must not.
package history

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"painter/internal/obs"
)

// ringCapacity is the per-series ring size: enough for several
// schedule replays at tenant tick cadence, bounded at ~12 KB per series.
const ringCapacity = 512

// Point is one sample: the store tick it was taken on, the clock stamp,
// and the value.
type Point struct {
	Tick uint64  `json:"tick"`
	TS   int64   `json:"ts"`
	Val  float64 `json:"val"`
}

// series is one metric's bounded ring. Memory is allocated once at
// first sight of the series and never grows.
type series struct {
	buf     []Point
	next    int
	wrapped bool
}

func (s *series) push(p Point) {
	s.buf[s.next] = p
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.wrapped = true
	}
}

// points appends the ring's contents in insertion order to dst.
func (s *series) points(dst []Point) []Point {
	if s.wrapped {
		dst = append(dst, s.buf[s.next:]...)
	}
	return append(dst, s.buf[:s.next]...)
}

func (s *series) len() int {
	if s.wrapped {
		return len(s.buf)
	}
	return s.next
}

// Config tunes a Store.
type Config struct {
	// Clock stamps each sample; nil means time.Now().UnixNano. Inject a
	// deterministic clock (TickClock) wherever byte-identical series
	// matter.
	Clock func() int64
	// Regs returns the registries to flatten on each Sample,
	// re-evaluated every time so dynamic registry sets stay covered.
	Regs func() []*obs.Registry
}

// TickClock returns a deterministic clock: the first call yields
// startNs, each subsequent call advances by stepNs. It is what tenant
// rigs inject so history bytes do not depend on wall time.
func TickClock(startNs, stepNs int64) func() int64 {
	var n int64
	return func() int64 {
		ts := startNs + n*stepNs
		n++
		return ts
	}
}

// Store holds one ring per series, keyed by the rendered instance name
// (base labels included, so a tenant's series are distinct from every
// other tenant's). Histograms flatten into five derived series with the
// summary suffix inserted before the label block:
// name_count{...}, name_sum{...}, name_p50{...}, name_p99{...},
// name_max{...}.
//
// All methods are safe for concurrent use; a nil Store no-ops.
type Store struct {
	mu     sync.Mutex
	clock  func() int64
	regs   func() []*obs.Registry
	tick   uint64
	series map[string]*series
}

// New builds a Store. A nil Regs func is allowed: Sample then only
// advances the tick.
func New(cfg Config) *Store {
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return &Store{
		clock:  cfg.Clock,
		regs:   cfg.Regs,
		series: make(map[string]*series),
	}
}

// suffixKey inserts a summary suffix before the key's label block:
// "h{a="b"}" + "_p99" → "h_p99{a="b"}". This keeps prefix matching on
// the metric name meaningful for labeled series.
func suffixKey(key, suffix string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i] + suffix + key[i:]
	}
	return key + suffix
}

// Sample takes one snapshot of every registry and appends a point per
// series, advancing the store tick. Returns the tick just recorded.
func (s *Store) Sample() uint64 {
	if s == nil {
		return 0
	}
	var snaps []obs.RegistrySnapshot
	if s.regs != nil {
		for _, r := range s.regs() {
			if r != nil {
				snaps = append(snaps, r.Snapshot())
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	p := Point{Tick: s.tick, TS: s.clock()}
	for _, snap := range snaps {
		for k, v := range snap.Counters {
			s.pushLocked(k, p, float64(v))
		}
		for k, v := range snap.Gauges {
			s.pushLocked(k, p, v)
		}
		for k, h := range snap.Histograms {
			s.pushLocked(suffixKey(k, "_count"), p, float64(h.Count))
			s.pushLocked(suffixKey(k, "_sum"), p, h.Sum)
			s.pushLocked(suffixKey(k, "_p50"), p, h.P50)
			s.pushLocked(suffixKey(k, "_p99"), p, h.P99)
			s.pushLocked(suffixKey(k, "_max"), p, h.Max)
		}
	}
	return s.tick
}

func (s *Store) pushLocked(name string, p Point, val float64) {
	sr := s.series[name]
	if sr == nil {
		sr = &series{buf: make([]Point, ringCapacity)}
		s.series[name] = sr
	}
	p.Val = val
	sr.push(p)
}

// Tick returns the store's current tick (samples taken so far).
func (s *Store) Tick() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tick
}

// Names returns every series name, sorted.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.series))
	for k := range s.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Match returns the sorted series names with the given prefix. An empty
// prefix matches everything.
func (s *Store) Match(prefix string) []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, 8)
	for k := range s.series {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Window returns the last n points of one series (n <= 0 means all
// retained). A missing series yields an empty window.
func (s *Store) Window(name string, n int) Window {
	if s == nil {
		return Window{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[name]
	if sr == nil {
		return Window{}
	}
	pts := sr.points(make([]Point, 0, sr.len()))
	if n > 0 && len(pts) > n {
		pts = pts[len(pts)-n:]
	}
	return Window{Points: pts}
}

// Bytes serializes the store canonically (series sorted by name,
// little-endian points): two stores are equivalent iff their Bytes are
// identical. With an injected deterministic clock this is the
// twin-run determinism witness.
func (s *Store) Bytes() []byte {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for k := range s.series {
		names = append(names, k)
	}
	sort.Strings(names)

	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u64(s.tick)
	u32(uint32(len(names)))
	for _, name := range names {
		u32(uint32(len(name)))
		b = append(b, name...)
		pts := s.series[name].points(nil)
		u32(uint32(len(pts)))
		for _, p := range pts {
			u64(p.Tick)
			u64(uint64(p.TS))
			u64(math.Float64bits(p.Val))
		}
	}
	return b
}

// Window is an immutable slice of one series, oldest first, with the
// query methods the alert engine evaluates rules over.
type Window struct {
	Points []Point
}

// Len is the number of points in the window.
func (w Window) Len() int { return len(w.Points) }

// Last returns the newest value (ok=false on an empty window).
func (w Window) Last() (float64, bool) {
	if len(w.Points) == 0 {
		return 0, false
	}
	return w.Points[len(w.Points)-1].Val, true
}

// Delta is newest minus oldest value (0 with fewer than two points).
func (w Window) Delta() float64 {
	if len(w.Points) < 2 {
		return 0
	}
	return w.Points[len(w.Points)-1].Val - w.Points[0].Val
}

// Rate is Delta per tick across the window (0 with fewer than two
// points or a zero tick span) — the per-tick growth of a counter.
func (w Window) Rate() float64 {
	if len(w.Points) < 2 {
		return 0
	}
	ticks := w.Points[len(w.Points)-1].Tick - w.Points[0].Tick
	if ticks == 0 {
		return 0
	}
	return w.Delta() / float64(ticks)
}

// Mean is the arithmetic mean of the window's values.
func (w Window) Mean() float64 {
	if len(w.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range w.Points {
		sum += p.Val
	}
	return sum / float64(len(w.Points))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the window's values by
// nearest-rank on a sorted copy.
func (w Window) Quantile(q float64) float64 {
	n := len(w.Points)
	if n == 0 {
		return 0
	}
	vals := make([]float64, n)
	for i, p := range w.Points {
		vals[i] = p.Val
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return vals[idx]
}
