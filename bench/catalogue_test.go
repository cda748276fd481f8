package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// wantBenchmarkFile renders the catalogue the way BENCHMARK.json holds
// it. UPDATE_BENCHMARK_JSON=1 go test -run TestBenchmarkJSON rewrites
// the file from it.
func wantBenchmarkFile() benchmarkFile {
	bf := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 30,
	}
	for _, n := range workloadNames {
		bf.Workloads = append(bf.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{n, workloadWhy[n]})
	}
	for _, d := range endToEnd {
		b := d.Bound
		bf.EndToEnd = append(bf.EndToEnd, benchMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		bf.PerLayer = append(bf.PerLayer, benchMetric{d.Name, d.Unit, d.Better, nil})
	}
	return bf
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogue in
// metrics.go the same, and inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(wantBenchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from the catalogue in metrics.go; rerun with UPDATE_BENCHMARK_JSON=1")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v is outside the driver's limits", d)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		for _, wl := range workloadNames {
			if slotMeaning[d.Name][wl] == "" {
				t.Errorf("%s has no stated meaning on %s", d.Name, wl)
			}
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics, limits 128 and 16", len(perLayer), len(endToEnd))
	}
	for _, wl := range workloadNames {
		if w := workloadWhy[wl]; w == "" || len(w) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", wl, len(w))
		}
	}
}
