package controlapi

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"painter/internal/obs"
)

// scrape fetches /metrics and parses the Prometheus text into samples.
func scrape(t *testing.T, h *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := h.Client().Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricsScrapeDuringSolve scrapes /metrics while a solve runs,
// then checks the exposition: counters are monotone across scrapes,
// the solve-loop and propagate instruments moved, and every histogram's
// +Inf bucket agrees with its _count.
func TestMetricsScrapeDuringSolve(t *testing.T) {
	s := New(getEnv(t), "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	before := scrape(t, srv)

	solveDone := make(chan struct{})
	go func() {
		defer close(solveDone)
		var sr SolveResponse
		rec := do(t, s.Handler(), "POST", "/solve", SolveRequest{Budget: 4, Iterations: 2}, &sr)
		if rec.Code != 200 {
			t.Errorf("solve = %d: %s", rec.Code, rec.Body.String())
		}
	}()

	// Scrape concurrently with the live solve; every counter must be
	// monotone non-decreasing between consecutive scrapes.
	prev := before
	for {
		select {
		case <-solveDone:
		default:
			cur := scrape(t, srv)
			for k, v := range prev {
				if strings.HasSuffix(strings.SplitN(k, "{", 2)[0], "_total") {
					if cv, ok := cur[k]; ok && cv < v {
						t.Errorf("counter %s went backwards: %v -> %v", k, v, cv)
					}
				}
			}
			prev = cur
			continue
		}
		break
	}

	after := scrape(t, srv)
	mustGrow := []string{
		"core_solve_iterations_total",
		"core_prefixes_placed_total",
		"bgp_propagate_total",
		"netsim_resolve_cache_misses_total",
	}
	for _, name := range mustGrow {
		if after[name] <= before[name] {
			t.Errorf("%s did not grow: %v -> %v", name, before[name], after[name])
		}
	}

	// Histogram internal consistency: +Inf bucket == _count, every
	// bucket <= +Inf, and a moved histogram has positive _sum.
	histSeen := 0
	for k, count := range after {
		if !strings.HasSuffix(k, "_count") {
			continue
		}
		base := strings.TrimSuffix(k, "_count")
		inf, ok := after[base+`_bucket{le="+Inf"}`]
		if !ok {
			t.Errorf("histogram %s has _count but no +Inf bucket", base)
			continue
		}
		if inf != count {
			t.Errorf("histogram %s: +Inf bucket %v != count %v", base, inf, count)
		}
		for bk, bv := range after {
			if strings.HasPrefix(bk, base+"_bucket{") && bv > inf {
				t.Errorf("histogram %s: bucket %s = %v exceeds +Inf %v", base, bk, bv, inf)
			}
		}
		if _, ok := after[base+"_sum"]; !ok {
			t.Errorf("histogram %s has no _sum", base)
		}
		histSeen++
	}
	if histSeen == 0 {
		t.Error("no histograms in exposition")
	}
	if after["bgp_propagate_seconds_count"] == 0 {
		t.Error("bgp_propagate_seconds did not record any observations")
	}
	if after["core_solve_seconds_count"] == 0 || after["core_solve_seconds_sum"] <= 0 {
		t.Errorf("core_solve_seconds count=%v sum=%v, want both positive",
			after["core_solve_seconds_count"], after["core_solve_seconds_sum"])
	}

	// The realized-benefit gauge is the latest iteration's realized
	// benefit, the same number /reports ends with.
	var reports []ReportJSON
	if rec := do(t, s.Handler(), "GET", "/reports", nil, &reports); rec.Code != 200 || len(reports) == 0 {
		t.Fatalf("reports = %d, %d entries", rec.Code, len(reports))
	}
	last := reports[len(reports)-1].Realized
	if got, ok := after["core_realized_benefit_ms"]; !ok || got != last {
		t.Errorf("core_realized_benefit_ms = %v (present %v), want the last report's %v", got, ok, last)
	}
}

// TestDebugObsEndpoint checks the JSON snapshot endpoint agrees with
// the Prometheus exposition.
func TestDebugObsEndpoint(t *testing.T) {
	s := New(getEnv(t), "")
	h := s.Handler()
	var sr SolveResponse
	if rec := do(t, h, "POST", "/solve", SolveRequest{Budget: 2, Iterations: 1}, &sr); rec.Code != 200 {
		t.Fatalf("solve = %d: %s", rec.Code, rec.Body.String())
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/obs = %d", resp.StatusCode)
	}
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["core_solve_iterations_total"] == 0 {
		t.Error("debug snapshot missing solve iterations")
	}
	if h, ok := snap.Histograms["core_solve_seconds"]; !ok || h.Count == 0 {
		t.Errorf("debug snapshot core_solve_seconds = %+v", h)
	}

	text := scrape(t, srv)
	if float64(snap.Counters["bgp_propagate_total"]) > text["bgp_propagate_total"] {
		t.Errorf("JSON snapshot ahead of a later text scrape: %v > %v",
			snap.Counters["bgp_propagate_total"], text["bgp_propagate_total"])
	}
}
