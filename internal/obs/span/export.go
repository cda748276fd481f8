package span

// Chrome/Perfetto trace-event export. The format is the JSON object
// flavor of the trace-event spec: {"traceEvents": [...]} where each
// finished span becomes one complete event (ph "X") with microsecond
// ts/dur. chrome://tracing and ui.perfetto.dev open the output
// directly. Encoding goes through encoding/json with struct fields and
// sorted-key maps only, so equal Record slices render byte-identically
// — the property the determinism tests pin.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
)

// ChromeEvent is one trace-event entry. Ts and Dur are microseconds
// per the spec; span identity rides in Args as zero-padded hex so the
// file survives viewers that mangle large integers.
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object.
type ChromeTrace struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

func hexID(id uint64) string { return fmt.Sprintf("%016x", id) }

// toChrome renders records (oldest-first, as Recorder.Snapshot yields
// them) as a ChromeTrace. The process name, when non-empty, becomes a
// process_name metadata event so viewers label the track.
func toChrome(process string, recs []Record) ChromeTrace {
	events := make([]ChromeEvent, 0, len(recs)+1)
	if process != "" {
		events = append(events, ChromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  1,
			Tid:  1,
			Args: map[string]string{"name": process},
		})
	}
	for _, r := range recs {
		args := make(map[string]string, len(r.Attrs)+3)
		args["trace_id"] = hexID(r.TraceID)
		args["span_id"] = hexID(r.SpanID)
		if r.ParentID != 0 {
			args["parent_id"] = hexID(r.ParentID)
		}
		for _, a := range r.Attrs {
			args[a.Key] = a.Value
		}
		dur := r.DurNs / 1e3
		if dur < 1 {
			dur = 1 // trace viewers drop zero-width slices
		}
		events = append(events, ChromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   r.StartNs / 1e3,
			Dur:  dur,
			Pid:  1,
			// One track per trace keeps concurrent traces from stacking
			// into a single nonsensical flame; the mapping is stable.
			Tid:  int(r.TraceID%512) + 1,
			Args: args,
		})
	}
	return ChromeTrace{TraceEvents: events}
}

// WriteChrome renders records as indented trace-event JSON.
func WriteChrome(w io.Writer, process string, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(toChrome(process, recs))
}

// ParseChrome decodes trace-event JSON and validates the invariants
// the exporter promises: complete events, positive ts/dur, and span
// identity present in args. It is the schema check for round-trip
// tests and for humans sanity-checking a dump.
func ParseChrome(r io.Reader) (ChromeTrace, error) {
	var ct ChromeTrace
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ct); err != nil {
		return ChromeTrace{}, fmt.Errorf("span: decode chrome trace: %w", err)
	}
	for i, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			if ev.Name == "" {
				return ChromeTrace{}, fmt.Errorf("span: event %d has empty name", i)
			}
			if ev.Ts < 0 || ev.Dur < 1 {
				return ChromeTrace{}, fmt.Errorf("span: event %d has invalid ts/dur %d/%d", i, ev.Ts, ev.Dur)
			}
			if len(ev.Args["trace_id"]) != 16 || len(ev.Args["span_id"]) != 16 {
				return ChromeTrace{}, fmt.Errorf("span: event %d missing trace/span id args", i)
			}
		default:
			return ChromeTrace{}, fmt.Errorf("span: event %d has unexpected phase %q", i, ev.Ph)
		}
	}
	return ct, nil
}

// dump writes the flight recorder as trace-event JSON. Nil tracers
// write a valid empty trace so -trace-dump always yields a loadable
// file.
func (t *Tracer) dump(w io.Writer) error {
	return WriteChrome(w, t.Process(), t.Recorder().Snapshot())
}

// DumpFile writes the flight recorder to path (for the daemons'
// -trace-dump flag).
func (t *Tracer) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Handler serves the flight recorder as trace-event JSON — the
// /debug/trace endpoint. A nil tracer serves valid empty traces.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := t.dump(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
