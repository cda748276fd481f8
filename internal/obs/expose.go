package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// writeProm writes the registry in the Prometheus text exposition
// format (version 0.0.4). Families are emitted in registration order;
// HELP/TYPE lines appear once per family. A nil registry writes
// nothing.
func (r *Registry) writeProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	seenFamily := map[string]bool{}
	for _, e := range r.snapshotEntries() {
		if !seenFamily[e.name] {
			seenFamily[e.name] = true
			if e.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", e.name, strings.ReplaceAll(e.help, "\n", " "))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.kind)
		}
		labels := r.exposeLabels(e.labels)
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", instanceName(e.name, labels), e.counter.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %s\n", instanceName(e.name, labels), fmtFloat(e.gauge.Value()))
		case kindGaugeFunc:
			r.mu.Lock()
			fn := e.gfn
			r.mu.Unlock()
			v := 0.0
			if fn != nil {
				v = fn()
			}
			fmt.Fprintf(bw, "%s %s\n", instanceName(e.name, labels), fmtFloat(v))
		case kindHistogram:
			writePromHistogram(bw, e, labels)
		}
	}
	return bw.Flush()
}

// instanceName renders name{labels} with the (already sorted) labels.
func instanceName(name string, labels []Label) string {
	return renderKey(name, labels)
}

// withLE renders name{labels,le="bound"}.
func withLE(name string, labels []Label, le string) string {
	ls := make([]Label, 0, len(labels)+1)
	ls = append(ls, labels...)
	ls = append(ls, Label{Key: "le", Value: le})
	return renderKey(name+"_bucket", ls)
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePromHistogram emits cumulative le-buckets (only octave
// boundaries that hold observations, plus +Inf), _sum, and _count.
func writePromHistogram(w io.Writer, e *entry, labels []Label) {
	s := e.hist.Snapshot()
	cum := uint64(0)
	for i, n := range s.Buckets {
		cum += n
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%s %d\n", withLE(e.name, labels, fmtFloat(bucketUpper(i))), cum)
	}
	fmt.Fprintf(w, "%s %d\n", withLE(e.name, labels, "+Inf"), s.Count)
	fmt.Fprintf(w, "%s %s\n", instanceName(e.name+"_sum", labels), fmtFloat(s.Sum))
	fmt.Fprintf(w, "%s %d\n", instanceName(e.name+"_count", labels), s.Count)
}

// RegistrySnapshot is the JSON shape served by /debug/obs: plain maps
// from the rendered instance key to the current value.
type RegistrySnapshot struct {
	Counters   map[string]uint64      `json:"counters,omitempty"`
	Gauges     map[string]float64     `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value. A nil registry
// returns an empty snapshot.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSummary{},
	}
	if r == nil {
		return s
	}
	for _, e := range r.snapshotEntries() {
		key := renderKey(e.name, r.exposeLabels(e.labels))
		switch e.kind {
		case kindCounter:
			s.Counters[key] = e.counter.Value()
		case kindGauge:
			s.Gauges[key] = e.gauge.Value()
		case kindGaugeFunc:
			r.mu.Lock()
			fn := e.gfn
			r.mu.Unlock()
			if fn != nil {
				s.Gauges[key] = fn()
			} else {
				s.Gauges[key] = 0
			}
		case kindHistogram:
			hs := e.hist.Snapshot()
			s.Histograms[key] = hs.summary()
		}
	}
	return s
}

// MergeSnapshots combines snapshots from several registries (later
// entries win on key collisions, which should not occur when metric
// names are namespaced per subsystem).
func MergeSnapshots(snaps ...RegistrySnapshot) RegistrySnapshot {
	out := RegistrySnapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSummary{},
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			out.Histograms[k] = v
		}
	}
	return out
}

// promHandler returns an http.Handler serving the Prometheus text format
// for all given registries concatenated. Nil registries are skipped.
func promHandler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if r == nil {
				continue
			}
			if err := r.writeProm(w); err != nil {
				return
			}
		}
	})
}

// jsonHandler returns an http.Handler serving the merged JSON snapshot
// of all given registries. Nil registries are skipped.
func jsonHandler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snaps := make([]RegistrySnapshot, 0, len(regs))
		for _, r := range regs {
			if r == nil {
				continue
			}
			snaps = append(snaps, r.Snapshot())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(MergeSnapshots(snaps...))
	})
}

// DynamicHandler is Handler with the registry list re-evaluated on
// every scrape — the exposition surface for processes whose registry
// set changes at runtime (tenant add/remove in painterd).
func DynamicHandler(regs func() []*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		promHandler(regs()...).ServeHTTP(w, req)
	})
}

// DynamicJSONHandler is jsonHandler with the registry list re-evaluated
// on every request.
func DynamicJSONHandler(regs func() []*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		jsonHandler(regs()...).ServeHTTP(w, req)
	})
}

// newMux returns a mux serving GET /metrics (Prometheus text) and
// GET /debug/obs (JSON snapshot) — the standard introspection surface
// for the standalone daemons.
func newMux(regs ...*Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", promHandler(regs...))
	mux.Handle("/debug/obs", jsonHandler(regs...))
	return mux
}

// ParseText parses Prometheus text-format exposition into a flat map
// from sample name (including rendered labels, exactly as exposed) to
// value. Comment and blank lines are skipped. It exists so tests can
// scrape and assert without a client library.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the field after the last space outside braces.
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			return nil, fmt.Errorf("obs: unparseable sample line %q", line)
		}
		name := strings.TrimSpace(line[:idx])
		valStr := strings.TrimSpace(line[idx+1:])
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in line %q: %v", line, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
