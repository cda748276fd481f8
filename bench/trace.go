package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"painter/internal/obs/span"
)

// traceRing is the flight-recorder size of a traced run. It must hold
// every span of a run, because the per-layer numbers are computed from
// the recorder after the run ends; finish() reports a wrapped ring as a
// correctness violation instead of computing from a partial trace.
const traceRing = 1 << 19

// tracing owns the one span.Tracer of a traced run. With tracing off
// the tracer is nil, and every span call below is the package's no-op.
type tracing struct {
	tr *span.Tracer
}

func newTracing(on bool, seed int64, workload string) *tracing {
	if !on {
		return &tracing{}
	}
	return &tracing{tr: span.New(span.Config{
		Seed: uint64(seed), Ring: traceRing, Process: "bench." + workload,
	})}
}

func (t *tracing) on() bool { return t.tr != nil }

// start opens bench.<name> under parent, or as the root of a new trace
// when parent is nil. Only spans opened here feed per-layer metrics.
func (t *tracing) start(parent *span.Span, name string, attrs ...span.Attr) *span.Span {
	if parent != nil {
		return parent.StartChild("bench."+name, attrs...)
	}
	return t.tr.StartRoot("bench."+name, attrs...)
}

// spanTimes holds, per bench span name, each span's duration and self
// time in nanoseconds, in recording order.
type spanTimes struct {
	dur  map[string][]float64
	self map[string][]float64
}

func (s spanTimes) medianMs(name string) float64 { return median(s.dur[name]) / 1e6 }
func (s spanTimes) medianUs(name string) float64 { return median(s.dur[name]) / 1e3 }

// selfTimes computes every bench.* span's self time: its duration
// minus the part of its interval that its direct bench.* children
// cover (overlapping children are merged first).
func selfTimes(recs []span.Record) spanTimes {
	out := spanTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	type iv struct{ lo, hi int64 }
	kids := map[uint64][]iv{}
	for _, r := range recs {
		if strings.HasPrefix(r.Name, "bench.") && r.ParentID != 0 {
			kids[r.ParentID] = append(kids[r.ParentID], iv{r.StartNs, r.StartNs + r.DurNs})
		}
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.Name, "bench.") {
			continue
		}
		name := strings.TrimPrefix(r.Name, "bench.")
		lo, hi := r.StartNs, r.StartNs+r.DurNs
		ivs := kids[r.SpanID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64 = 0, lo
		for _, k := range ivs {
			if k.lo < end {
				k.lo = end
			}
			if k.hi > hi {
				k.hi = hi
			}
			if k.hi > k.lo {
				covered += k.hi - k.lo
				end = k.hi
			}
		}
		out.dur[name] = append(out.dur[name], float64(r.DurNs))
		out.self[name] = append(out.self[name], float64(r.DurNs-covered))
	}
	return out
}

// finish dumps the recorder as Chrome trace JSON, checks the dump with
// span.ParseChrome, and returns the bench span times. It returns an
// error when the ring wrapped or the dump does not parse.
func (t *tracing) finish(outDir, workload string) (spanTimes, string, error) {
	if !t.on() {
		return spanTimes{}, "", nil
	}
	rec := t.tr.Recorder()
	recs := rec.Snapshot()
	times := selfTimes(recs)
	if rec.Total() > uint64(rec.Cap()) {
		return times, "", fmt.Errorf("trace ring wrapped: %d spans recorded, ring holds %d", rec.Total(), rec.Cap())
	}
	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, t.tr.Process(), recs); err != nil {
		return times, "", fmt.Errorf("write trace: %w", err)
	}
	if _, err := span.ParseChrome(bytes.NewReader(buf.Bytes())); err != nil {
		return times, "", fmt.Errorf("trace dump does not validate: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return times, "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return times, "", err
	}
	return times, path, nil
}
