package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"painter/internal/obs/span"
)

// TestSmoke runs every workload's traced pass at the -smoke sizes: the
// whole benchmark, every correctness gate and the trace export, in a
// few seconds, so that `go test` keeps it from bit-rotting.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("opens sockets and runs for a few seconds")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := realMain([]string{"-smoke", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-smoke exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("-smoke took %v, want under 10 s", d)
	}
	for _, wl := range workloadNames {
		b, err := os.ReadFile(resultPath(out, true, wl))
		if err != nil {
			t.Fatal(err)
		}
		var p provenance
		if err := json.Unmarshal(b, &p); err != nil {
			t.Fatalf("%s result file: %v", wl, err)
		}
		if p.Result == nil || p.Result.Attempted < 1 || p.Result.Failed != 0 || len(p.Result.Violations) != 0 {
			t.Errorf("%s: result %+v", wl, p.Result)
			continue
		}
		if p.GoVersion == "" || p.NProc < 1 || p.Network == "" || p.Sizing.ScaleName != "small" {
			t.Errorf("%s: provenance incomplete: %+v", wl, p)
		}
		for _, d := range endToEnd {
			if v, ok := p.Result.E2E[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.Name, v)
			}
		}
		for _, d := range perLayer {
			if _, ok := p.Result.Layer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl, d.Name)
			}
		}
		f, err := os.Open(filepath.Join(out, "trace-"+wl+".json"))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := span.ParseChrome(f)
		f.Close()
		if err != nil {
			t.Errorf("%s trace: %v", wl, err)
		}
		if len(ct.TraceEvents) < 10 {
			t.Errorf("%s trace has %d events", wl, len(ct.TraceEvents))
		}
	}
}

// TestDriverLine checks the one-line object a driver reads: exactly the
// contract's keys, every catalogued metric, the right unit.
func TestDriverLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := newResult(wlTMEcho, traced)
		res.Attempted = 3
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for i, d := range defs {
			res.E2E[d.Name], res.Layer[d.Name] = float64(i)+0.5, float64(i)+0.5
		}
		var buf bytes.Buffer
		if err := printDriverLine(&buf, res); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("driver line has keys %v, want correct, attempted, failed, metrics", line)
		}
		var metrics map[string]driverValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s: unit %q, want %q", d.Name, metrics[d.Name].Unit, d.Unit)
			}
		}
	}
	res := newResult(wlTMEcho, false)
	if err := printDriverLine(&bytes.Buffer{}, res); err == nil {
		t.Errorf("a result without its metrics printed a driver line")
	}
}
