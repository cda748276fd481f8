package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// Base labels are an exposition-time concern: instruments register and
// look up by their own labels only, and the base set is merged into
// every series when written out — the mechanism that turns a per-world
// registry into a tenant-labeled one without touching instrumented
// code.
func TestBaseLabelsExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "Events.")
	c.Add(3)
	g := r.Gauge("queue_depth", "Depth.", L("shard", "a"))
	g.Set(2)
	h := r.Histogram("latency_seconds", "Latency.")
	h.Observe(0.5)

	r.SetBaseLabels(L("tenant", "acme"))

	var b strings.Builder
	if err := r.writeProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`events_total{tenant="acme"} 3`,
		`queue_depth{shard="a",tenant="acme"} 2`,
		`latency_seconds_count{tenant="acme"} 1`,
		`latency_seconds_bucket{le="+Inf",tenant="acme"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Lookups stay keyed by the instrument's own labels: re-registering
	// returns the same counter, unaffected by the base set.
	if r.Counter("events_total", "Events.") != c {
		t.Error("base labels changed instrument identity")
	}

	// Snapshot keys carry the merged labels.
	snap := r.Snapshot()
	if _, ok := snap.Counters[`events_total{tenant="acme"}`]; !ok {
		t.Errorf("snapshot keys = %v", snap.Counters)
	}
}

func TestBaseLabelsEntryWins(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "C.", L("tenant", "explicit")).Inc()
	r.SetBaseLabels(L("tenant", "base"))
	var b strings.Builder
	if err := r.writeProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c_total{tenant="explicit"} 1`) {
		t.Errorf("instrument label should beat base label:\n%s", b.String())
	}
	if strings.Contains(b.String(), `tenant="base"`) {
		t.Errorf("base label leaked alongside explicit one:\n%s", b.String())
	}
}

func TestBaseLabelsNilSafe(t *testing.T) {
	var r *Registry
	r.SetBaseLabels(L("tenant", "x")) // must not panic
	expo := func(r *Registry) string {
		var b strings.Builder
		if err := r.writeProm(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if out := expo(r); out != "" {
		t.Errorf("nil registry exposes %q", out)
	}
	r2 := NewRegistry()
	r2.Counter("n_total", "").Inc()
	if out := expo(r2); !strings.Contains(out, "n_total 1") {
		t.Errorf("fresh registry has base labels:\n%s", out)
	}
	r2.SetBaseLabels(L("b", "2"), L("a", "1"))
	if out := expo(r2); !strings.Contains(out, `n_total{a="1",b="2"} 1`) {
		t.Errorf("base labels not sorted:\n%s", out)
	}
}

func TestDynamicHandlerReevaluates(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("one_total", "One.").Inc()
	regs := []*Registry{r1}
	h := DynamicHandler(func() []*Registry { return regs })

	body := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	if out := body(); !strings.Contains(out, "one_total 1") {
		t.Fatalf("first scrape: %s", out)
	}
	r2 := NewRegistry()
	r2.SetBaseLabels(L("tenant", "late"))
	r2.Counter("two_total", "Two.").Inc()
	regs = append(regs, r2)
	if out := body(); !strings.Contains(out, `two_total{tenant="late"} 1`) {
		t.Fatalf("second scrape missed the new registry: %s", out)
	}
}
