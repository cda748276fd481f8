package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every constructor on a nil registry returns nil and
// every method on a nil metric is a no-op — the disabled-path contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge value != 0")
	}
	h.Observe(1.5)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot not empty")
	}
	if err := r.writeProm(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WriteProm: %v", err)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if again := r.Counter("requests_total", "requests"); again != c {
		t.Error("get-or-create returned a different counter instance")
	}

	g := r.Gauge("temp", "")
	g.Set(10)
	g.Set(7.5)
	if got := g.Value(); got != 7.5 {
		t.Errorf("gauge = %v, want 7.5", got)
	}
}

func TestLabelSetsAddressDistinctInstances(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("events_total", "", L("kind", "up"))
	b := r.Counter("events_total", "", L("kind", "down"))
	if a == b {
		t.Fatal("different label values must be different instances")
	}
	a.Inc()
	a.Inc()
	b.Inc()
	// Permuted label order addresses the same instance.
	x := r.Counter("multi_total", "", L("a", "1"), L("b", "2"))
	y := r.Counter("multi_total", "", L("b", "2"), L("a", "1"))
	if x != y {
		t.Error("permuted label order must address the same instance")
	}
	snap := r.Snapshot()
	if snap.Counters[`events_total{kind="up"}`] != 2 {
		t.Errorf("snapshot: %v", snap.Counters)
	}
	if snap.Counters[`events_total{kind="down"}`] != 1 {
		t.Errorf("snapshot: %v", snap.Counters)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramExactMoments(t *testing.T) {
	h := newHistogram()
	vals := []float64{0.5, 1.0, 2.0, 4.0, 100.0}
	sum := 0.0
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Errorf("count = %d, want %d", s.Count, len(vals))
	}
	if math.Abs(s.Sum-sum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, sum)
	}
	if s.Max != 100.0 {
		t.Errorf("max = %v, want 100", s.Max)
	}
}

// TestHistogramQuantileAccuracy: bucket width is <= 25% of the value,
// so any quantile estimate must be within 25% of the true value for a
// dense sample.
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := newHistogram()
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i)) // uniform 1..n
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * n
		got := s.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.25 {
			t.Errorf("q%v = %v, want %v ±25%%", q, got, want)
		}
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("q1 = %v, want max %v", got, s.Max)
	}
	if (&HistSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile != 0")
	}
}

func TestHistogramExtremesAndJunk(t *testing.T) {
	h := newHistogram()
	h.Observe(0)           // clamps to bucket 0, still counted
	h.Observe(-5)          // clamps, counted, max unaffected
	h.Observe(1e-300)      // below range: clamps low
	h.Observe(1e300)       // above range: clamps high
	h.Observe(math.NaN())  // dropped
	h.Observe(math.Inf(1)) // dropped
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("count = %d, want 4 (NaN/Inf dropped)", s.Count)
	}
	if s.Max != 1e300 {
		t.Errorf("max = %v, want 1e300 (exact despite clamped bucket)", s.Max)
	}
}

// merge accumulates other into s.
func (s *HistSnapshot) merge(other HistSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

func TestHistogramMerge(t *testing.T) {
	h1, h2 := newHistogram(), newHistogram()
	for i := 0; i < 100; i++ {
		h1.Observe(1)
		h2.Observe(1000)
	}
	a, b := h1.Snapshot(), h2.Snapshot()
	a.merge(b)
	if a.Count != 200 {
		t.Errorf("merged count = %d", a.Count)
	}
	if math.Abs(a.Sum-100100) > 1e-6 {
		t.Errorf("merged sum = %v", a.Sum)
	}
	if a.Max != 1000 {
		t.Errorf("merged max = %v", a.Max)
	}
	// Median of a bimodal 50/50 merge sits in one of the two modes.
	med := a.Quantile(0.5)
	if !(med < 2 || med > 500) {
		t.Errorf("bimodal median = %v, expected near a mode", med)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(workers * per)
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	s := h.Snapshot()
	if s.Count != workers*per || s.Sum != workers*per {
		t.Errorf("hist count=%d sum=%v, want %d", s.Count, s.Sum, workers*per)
	}
}

// TestPromExposition round-trips WriteProm through ParseText and
// checks histogram invariants (cumulative buckets, sum/count lines).
func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "total requests", L("code", "200")).Add(7)
	r.Gauge("up", "is up").Set(1)
	r.GaugeFunc("derived", "computed", func() float64 { return 2.5 })
	h := r.Histogram("lat_seconds", "latency")
	for _, v := range []float64{0.001, 0.01, 0.1, 1} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.writeProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		"# HELP reqs_total total requests",
		"# TYPE up gauge",
		"# TYPE derived gauge",
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	if samples[`reqs_total{code="200"}`] != 7 {
		t.Errorf("counter sample: %v", samples)
	}
	if samples["up"] != 1 || samples["derived"] != 2.5 {
		t.Errorf("gauge samples: up=%v derived=%v", samples["up"], samples["derived"])
	}
	if samples["lat_seconds_count"] != 4 {
		t.Errorf("hist count sample = %v", samples["lat_seconds_count"])
	}
	if math.Abs(samples["lat_seconds_sum"]-1.111) > 1e-9 {
		t.Errorf("hist sum sample = %v", samples["lat_seconds_sum"])
	}
	if samples[`lat_seconds_bucket{le="+Inf"}`] != 4 {
		t.Errorf("hist +Inf bucket = %v", samples[`lat_seconds_bucket{le="+Inf"}`])
	}
	// Every finite bucket's cumulative count must not exceed +Inf's.
	inf := samples[`lat_seconds_bucket{le="+Inf"}`]
	for k := range samples {
		if strings.HasPrefix(k, "lat_seconds_bucket") && samples[k] > inf {
			t.Errorf("bucket %s = %v exceeds +Inf bucket %v", k, samples[k], inf)
		}
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	if _, err := ParseText(strings.NewReader("garbage-without-value\n")); err == nil {
		t.Error("want error for sample line without value")
	}
	m, err := ParseText(strings.NewReader("# just a comment\n\n"))
	if err != nil || len(m) != 0 {
		t.Errorf("comments/blank lines: m=%v err=%v", m, err)
	}
}

func TestMergeSnapshots(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("a_total", "").Add(1)
	r2.Counter("b_total", "").Add(2)
	r2.Gauge("g", "").Set(9)
	m := MergeSnapshots(r1.Snapshot(), r2.Snapshot())
	if m.Counters["a_total"] != 1 || m.Counters["b_total"] != 2 || m.Gauges["g"] != 9 {
		t.Errorf("merged: %+v", m)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("msg", `a"b\c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.writeProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `msg="a\"b\\c\n"`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

func TestBucketBoundsConsistent(t *testing.T) {
	for i := 0; i < histNumBuckets; i++ {
		lo, hi := bucketLower(i), bucketUpper(i)
		if !(lo < hi) {
			t.Fatalf("bucket %d: lo %v >= hi %v", i, lo, hi)
		}
		if i > 0 && bucketUpper(i-1) != lo {
			t.Fatalf("bucket %d: gap/overlap with predecessor: upper(%d)=%v lower(%d)=%v",
				i, i-1, bucketUpper(i-1), i, lo)
		}
		// A value inside the bucket must index back to it.
		mid := lo + (hi-lo)/2
		if got := bucketIndex(mid); got != i {
			t.Fatalf("bucketIndex(%v) = %d, want %d", mid, got, i)
		}
	}
}
