package history

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"painter/internal/obs"
)

// Push records a single point for one series at the current tick
// without advancing it: the hand-fed path for these tests.
func (s *Store) Push(name string, val float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushLocked(name, Point{Tick: s.tick, TS: s.clock()}, val)
}

func TestWindowQueries(t *testing.T) {
	s := New(Config{Clock: TickClock(0, 1)})
	for i := 1; i <= 8; i++ {
		s.mu.Lock()
		s.tick++
		s.mu.Unlock()
		s.Push("c", float64(i*10))
	}
	w := s.Window("c", 0)
	if w.Len() != 8 {
		t.Fatalf("window len = %d, want 8", w.Len())
	}
	if v, ok := w.Last(); !ok || v != 80 {
		t.Fatalf("Last = %v,%v want 80,true", v, ok)
	}
	if d := w.Delta(); d != 70 {
		t.Fatalf("Delta = %v, want 70", d)
	}
	if r := w.Rate(); r != 10 {
		t.Fatalf("Rate = %v, want 10", r)
	}
	if m := w.Mean(); m != 45 {
		t.Fatalf("Mean = %v, want 45", m)
	}
	if q := w.Quantile(0.5); q != 40 {
		t.Fatalf("Quantile(0.5) = %v, want 40", q)
	}
	if q := w.Quantile(1); q != 80 {
		t.Fatalf("Quantile(1) = %v, want 80", q)
	}
	if q := w.Quantile(0); q != 10 {
		t.Fatalf("Quantile(0) = %v, want 10", q)
	}
	// Last-n windowing.
	if got := s.Window("c", 3).Len(); got != 3 {
		t.Fatalf("Window(3) len = %d, want 3", got)
	}
	if d := s.Window("c", 3).Delta(); d != 20 {
		t.Fatalf("Window(3) delta = %v, want 20", d)
	}
}

func TestRingWraparound(t *testing.T) {
	s := New(Config{Clock: TickClock(0, 1)})
	for i := 1; i <= ringCapacity+6; i++ {
		s.Push("x", float64(i))
	}
	w := s.Window("x", 0)
	if w.Len() != ringCapacity {
		t.Fatalf("len = %d, want capacity %d", w.Len(), ringCapacity)
	}
	for i, p := range w.Points {
		if want := float64(i + 7); p.Val != want {
			t.Fatalf("point %d = %v, want %v (oldest-first after wrap)", i, p.Val, want)
		}
	}
}

func TestSampleFlattensRegistries(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetBaseLabels(obs.L("tenant", "a"))
	c := reg.Counter("reqs_total", "requests")
	g := reg.Gauge("depth", "queue depth")
	h := reg.Histogram("lat_seconds", "latency")
	s := New(Config{
		Clock: TickClock(100, 5),
		Regs:  func() []*obs.Registry { return []*obs.Registry{reg} },
	})

	c.Add(3)
	g.Set(2.5)
	h.Observe(0.1)
	h.Observe(0.2)
	if tick := s.Sample(); tick != 1 {
		t.Fatalf("first Sample tick = %d, want 1", tick)
	}
	c.Add(2)
	s.Sample()

	// Counter and gauge keys carry the base label.
	w := s.Window(`reqs_total{tenant="a"}`, 0)
	if w.Len() != 2 {
		t.Fatalf("counter window len = %d, want 2; names = %v", w.Len(), s.Names())
	}
	if d := w.Delta(); d != 2 {
		t.Fatalf("counter delta = %v, want 2", d)
	}
	if v, _ := s.Window(`depth{tenant="a"}`, 0).Last(); v != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", v)
	}
	// Histogram summary suffix lands before the label block.
	if v, _ := s.Window(`lat_seconds_count{tenant="a"}`, 0).Last(); v != 2 {
		t.Fatalf("hist count = %v, want 2; names = %v", v, s.Names())
	}
	for _, suffix := range []string{"_sum", "_p50", "_p99", "_max"} {
		if got := s.Window(`lat_seconds`+suffix+`{tenant="a"}`, 0).Len(); got != 2 {
			t.Fatalf("hist series %s missing", suffix)
		}
	}
	// Timestamps come from the injected clock.
	if ts := w.Points[0].TS; ts != 100 {
		t.Fatalf("first sample ts = %d, want 100", ts)
	}
}

func TestBytesDeterministic(t *testing.T) {
	build := func() *Store {
		reg := obs.NewRegistry()
		c := reg.Counter("a_total", "")
		g := reg.Gauge("b", "")
		s := New(Config{
			Clock: TickClock(0, 10),
			Regs:  func() []*obs.Registry { return []*obs.Registry{reg} },
		})
		for i := 0; i < 6; i++ {
			c.Add(uint64(i))
			g.Set(float64(i) * 0.5)
			s.Sample()
		}
		return s
	}
	b1, b2 := build().Bytes(), build().Bytes()
	if len(b1) == 0 {
		t.Fatal("empty bytes")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same-sequence stores produced different bytes")
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	if s.Sample() != 0 || s.Tick() != 0 || s.Window("x", 1).Len() != 0 ||
		s.Names() != nil || s.Bytes() != nil {
		t.Fatal("nil store must no-op")
	}
}

func TestHandler(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("hits_total", "")
	g := reg.Gauge("load", "")
	s := New(Config{
		Clock: TickClock(0, 1),
		Regs:  func() []*obs.Registry { return []*obs.Registry{reg} },
	})
	for i := 0; i < 4; i++ {
		c.Inc()
		g.Set(float64(i))
		s.Sample()
	}
	h := StoreHandler(s)

	get := func(url string) ResponseJSON {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body.String())
		}
		var out ResponseJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		return out
	}

	full := get("/debug/obs/history")
	if full.Tick != 4 || len(full.Series) != 2 {
		t.Fatalf("full = tick %d, %d series; want 4, 2", full.Tick, len(full.Series))
	}
	if got := len(full.Series["hits_total"].Values); got != 4 {
		t.Fatalf("hits_total points = %d, want 4", got)
	}

	matched := get("/debug/obs/history?match=hits")
	if len(matched.Series) != 1 {
		t.Fatalf("match=hits series = %d, want 1", len(matched.Series))
	}

	lastN := get("/debug/obs/history?n=2")
	if got := len(lastN.Series["load"].Values); got != 2 {
		t.Fatalf("n=2 points = %d, want 2", got)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/history?n=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad n: code = %d, want 400", rec.Code)
	}
}
