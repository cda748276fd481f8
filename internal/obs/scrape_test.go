package obs

// Scrape-path tests: ParseText must round-trip exactly what WriteProm
// renders for base-labeled registries (the tenant-labeled exposition
// painterd serves), and DynamicHandler must tolerate the registry set
// churning mid-scrape — the tenant create/delete race `make race`
// targets.

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestParseTextRoundTripBaseLabels(t *testing.T) {
	mk := func(tenant string, events int) *Registry {
		r := NewRegistry()
		r.SetBaseLabels(L("tenant", tenant))
		c := r.Counter("rt_events_total", "Events.")
		for i := 0; i < events; i++ {
			c.Inc()
		}
		r.Gauge("rt_depth", "Depth.", L("shard", "s1")).Set(float64(events) / 2)
		h := r.Histogram("rt_latency_seconds", "Latency.")
		h.Observe(0.25)
		h.Observe(0.75)
		return r
	}
	ra, rb := mk("a", 3), mk("b", 7)

	rec := httptest.NewRecorder()
	promHandler(ra, rb).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Every sample the snapshot exposes must come back under the exact
	// merged-label key, with the exact value.
	for tenant, events := range map[string]float64{"a": 3, "b": 7} {
		for key, want := range map[string]float64{
			fmt.Sprintf(`rt_events_total{tenant=%q}`, tenant):                     events,
			fmt.Sprintf(`rt_depth{shard="s1",tenant=%q}`, tenant):                 events / 2,
			fmt.Sprintf(`rt_latency_seconds_count{tenant=%q}`, tenant):            2,
			fmt.Sprintf(`rt_latency_seconds_sum{tenant=%q}`, tenant):              1.0,
			fmt.Sprintf(`rt_latency_seconds_bucket{le="+Inf",tenant=%q}`, tenant): 2,
		} {
			got, ok := samples[key]
			if !ok {
				t.Fatalf("scrape missing %s; have %v", key, samples)
			}
			if got != want {
				t.Errorf("%s = %v, want %v", key, got, want)
			}
		}
	}
	// The two registries' series must not collide: counts per tenant.
	var a, b int
	for k := range samples {
		if strings.Contains(k, `tenant="a"`) {
			a++
		}
		if strings.Contains(k, `tenant="b"`) {
			b++
		}
	}
	if a == 0 || a != b {
		t.Errorf("per-tenant sample counts diverge: a=%d b=%d", a, b)
	}
}

// TestDynamicHandlerConcurrentChurn scrapes a DynamicHandler while
// tenant registries are created, written to, and deleted concurrently —
// the painterd /metrics surface during reconcile churn. Run under
// -race; every scrape must also stay parseable.
func TestDynamicHandlerConcurrentChurn(t *testing.T) {
	var mu sync.Mutex
	var regs []*Registry
	h := DynamicHandler(func() []*Registry {
		mu.Lock()
		defer mu.Unlock()
		return append([]*Registry(nil), regs...)
	})

	const churns = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // tenant lifecycle: create, instrument, delete
		defer wg.Done()
		for i := 0; i < churns; i++ {
			r := NewRegistry()
			r.SetBaseLabels(L("tenant", fmt.Sprintf("t%d", i)))
			c := r.Counter("churn_events_total", "Events.")
			mu.Lock()
			regs = append(regs, r)
			mu.Unlock()
			for j := 0; j < 20; j++ {
				c.Inc()
				r.Gauge("churn_depth", "Depth.").Set(float64(j))
			}
			mu.Lock()
			regs = regs[1:]
			mu.Unlock()
		}
	}()
	scrapeErr := make(chan error, 1)
	go func() { // scraper
		defer wg.Done()
		for i := 0; i < churns*4; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if _, err := ParseText(rec.Body); err != nil {
				select {
				case scrapeErr <- fmt.Errorf("scrape %d: %w", i, err):
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}
}
