// Package alert is a deterministic rule engine over history windows:
// threshold, absence, and EWMA-drift rules evaluated once per tick,
// each (rule, series) instance walking a pending → firing → resolved
// state machine. Everything the engine does is a pure function of the
// sampled history and the tick number — no wall time, no goroutines —
// so two same-seed runs produce byte-identical transition streams
// (Result.Bytes), which is what lets chaos tests assert "this fault
// raises that alert on this tick".
package alert

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"

	"painter/internal/obs/history"
	"painter/internal/obs/span"
)

// Kind selects the rule's judgment.
type Kind string

// Rule kinds. Threshold compares an aggregate of the window against a
// bound; absence fires when the watched series stops advancing while
// its gate series still does; ewma fires when the latest sample leaves
// an EWMA baseline band.
const (
	KindThreshold Kind = "threshold"
	KindAbsence   Kind = "absence"
	KindEWMA      Kind = "ewma"
)

// Op is a threshold comparison.
type Op string

// Threshold operators.
const (
	OpGT Op = "gt"
	OpLT Op = "lt"
)

// Agg selects the window aggregate a threshold rule compares; the
// empty Agg compares the window's last sample.
type Agg string

// Window aggregates.
const (
	AggMean  Agg = "mean"
	AggRate  Agg = "rate"
	AggDelta Agg = "delta"
	AggP99   Agg = "p99"
	AggMax   Agg = "max"
)

// Rule is one declarative alert. Series is an exact history series name
// or a prefix match when it ends in '*' (one instance per matching
// series, so a wildcard rule fans out across PoPs or tenants).
type Rule struct {
	Name   string `json:"name"`
	Kind   Kind   `json:"kind"`
	Series string `json:"series"`
	// Window is how many samples the rule looks back over (default 1
	// for threshold/ewma, 5 for absence).
	Window int `json:"window,omitempty"`
	// For is how many consecutive true ticks before firing (default 1:
	// fire on the first). Values above 1 hold the instance pending.
	For int `json:"for,omitempty"`

	// Threshold fields.
	Op    Op      `json:"op,omitempty"`
	Value float64 `json:"value,omitempty"`
	Agg   Agg     `json:"agg,omitempty"`

	// EWMA-drift fields: baseline smoothing, the absolute band the
	// latest sample may wander before the rule is true, and the warmup
	// sample count before judging starts.
	Alpha      float64 `json:"alpha,omitempty"`
	Band       float64 `json:"band,omitempty"`
	MinSamples int     `json:"min_samples,omitempty"`

	// Gate (absence only) is the series that must still be advancing
	// for silence on Series to count as a blackout rather than an idle
	// system.
	Gate string `json:"gate,omitempty"`

	// Labels are extra identity labels echoed on states/transitions.
	Labels map[string]string `json:"labels,omitempty"`
}

// windowOr returns the rule's effective window.
func (r Rule) windowOr() int {
	if r.Window > 0 {
		return r.Window
	}
	if r.Kind == KindAbsence {
		return 5
	}
	return 1
}

func (r Rule) alphaOr() float64 {
	if r.Alpha > 0 && r.Alpha <= 1 {
		return r.Alpha
	}
	return 0.2
}

// State is one instance's position in the lifecycle.
type State string

// Instance states. Resolved is sticky until the condition is true
// again; it exists so "this fired and recovered" is visible after the
// fact rather than collapsing back into inactive.
const (
	StateInactive State = "inactive"
	StatePending  State = "pending"
	StateFiring   State = "firing"
	StateResolved State = "resolved"
)

// stateByte maps states onto the canonical encoding.
func stateByte(s State) byte {
	switch s {
	case StatePending:
		return 1
	case StateFiring:
		return 2
	case StateResolved:
		return 3
	default:
		return 0
	}
}

// Transition is one state change: the diffable unit of the alert
// stream.
type Transition struct {
	Tick   uint64  `json:"tick"`
	Rule   string  `json:"rule"`
	Series string  `json:"series"`
	From   State   `json:"from"`
	To     State   `json:"to"`
	Value  float64 `json:"value"`
}

// Result is a transition stream with a canonical encoding.
type Result struct {
	Transitions []Transition `json:"transitions"`
}

// Bytes serializes the stream canonically (little-endian, in emission
// order): two runs raised the same alerts at the same ticks iff their
// Bytes are identical.
func (r Result) Bytes() []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) { u32(uint32(len(s))); b = append(b, s...) }
	u32(uint32(len(r.Transitions)))
	for _, t := range r.Transitions {
		u64(t.Tick)
		str(t.Rule)
		str(t.Series)
		b = append(b, stateByte(t.From), stateByte(t.To))
		u64(math.Float64bits(t.Value))
	}
	return b
}

// StateView is one instance's externally visible state (the /alerts
// payload element).
type StateView struct {
	Rule      string            `json:"rule"`
	Series    string            `json:"series"`
	State     State             `json:"state"`
	SinceTick uint64            `json:"since_tick"`
	Value     float64           `json:"value"`
	Baseline  float64           `json:"baseline,omitempty"`
	Labels    map[string]string `json:"labels,omitempty"`
}

// instance is the per-(rule, series) state machine.
type instance struct {
	rule   int // index into Engine.rules
	series string

	state       State
	sinceTick   uint64
	consecutive int
	value       float64

	// EWMA baseline state.
	baseline float64
	samples  int
}

// Options tunes an Engine.
type Options struct {
	// Labels are base identity labels (e.g. tenant="x") echoed on every
	// state view and used to pick a correlated flight-recorder span.
	Labels map[string]string
	// Logger mirrors firing/resolved transitions into structured logs
	// (nil = no mirroring).
	Logger *slog.Logger
	// Tracer supplies the flight recorder scanned for a span matching
	// the engine's labels when a firing alert is logged (nil = no trace
	// correlation).
	Tracer *span.Tracer
}

// streamCap bounds the retained transition stream.
const streamCap = 1024

// Engine evaluates a rule set over one history store. All methods are
// safe for concurrent use; a nil Engine no-ops.
type Engine struct {
	store *history.Store
	rules []Rule
	opts  Options

	mu     sync.Mutex
	inst   map[string]*instance // key: ruleIdx|series
	order  []string             // insertion order of inst keys (deterministic)
	stream []Transition
}

// NewEngine builds an engine over a store. The rule list is evaluated
// in order on every Eval; wildcard rules bind to matching series
// lazily as they appear in the store.
func NewEngine(store *history.Store, rules []Rule, opts Options) *Engine {
	return &Engine{
		store: store,
		rules: append([]Rule(nil), rules...),
		opts:  opts,
		inst:  make(map[string]*instance),
	}
}

// matchSeries lists the series a rule binds to this tick.
func (e *Engine) matchSeries(r Rule) []string {
	if p, ok := strings.CutSuffix(r.Series, "*"); ok {
		return e.store.Match(p)
	}
	return []string{r.Series}
}

// Eval runs every rule once against the store at the given tick and
// returns the transitions it produced (nil when nothing changed).
func (e *Engine) Eval(tick uint64) []Transition {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	var out []Transition
	for ri, r := range e.rules {
		for _, sname := range e.matchSeries(r) {
			in := e.instanceLocked(ri, sname)
			cond, val := e.judge(r, in, sname)
			out = e.advanceLocked(tick, r, in, cond, val, out)
		}
	}
	e.stream = append(e.stream, out...)
	if len(e.stream) > streamCap {
		e.stream = e.stream[len(e.stream)-streamCap:]
	}
	e.mu.Unlock()
	e.mirror(out)
	return out
}

func (e *Engine) instanceLocked(ri int, sname string) *instance {
	key := fmt.Sprintf("%d|%s", ri, sname)
	in := e.inst[key]
	if in == nil {
		in = &instance{rule: ri, series: sname, state: StateInactive}
		e.inst[key] = in
		e.order = append(e.order, key)
	}
	return in
}

// judge evaluates one rule's condition against one series.
func (e *Engine) judge(r Rule, in *instance, sname string) (bool, float64) {
	switch r.Kind {
	case KindThreshold:
		w := e.store.Window(sname, r.windowOr())
		if w.Len() == 0 {
			return false, 0
		}
		v := aggregate(w, r.Agg)
		return compare(v, r.Op, r.Value), v
	case KindAbsence:
		ws := e.store.Window(sname, r.windowOr())
		wg := e.store.Window(r.Gate, r.windowOr())
		gateAdvancing := wg.Len() >= 2 && wg.Delta() > 0
		stalled := ws.Len() < 2 || ws.Delta() <= 0
		v, _ := ws.Last()
		return gateAdvancing && stalled, v
	case KindEWMA:
		w := e.store.Window(sname, 1)
		v, ok := w.Last()
		if !ok {
			return false, 0
		}
		in.samples++
		if in.samples == 1 {
			in.baseline = v
			return false, v
		}
		warm := in.samples > r.MinSamples
		cond := warm && math.Abs(v-in.baseline) > r.Band
		// The baseline keeps learning even while firing, so a drift
		// alert self-resolves once the new share becomes the norm.
		a := r.alphaOr()
		in.baseline = a*v + (1-a)*in.baseline
		return cond, v
	}
	return false, 0
}

func aggregate(w history.Window, agg Agg) float64 {
	switch agg {
	case AggMean:
		return w.Mean()
	case AggRate:
		return w.Rate()
	case AggDelta:
		return w.Delta()
	case AggP99:
		return w.Quantile(0.99)
	case AggMax:
		return w.Quantile(1)
	default: // unset: the last sample
		v, _ := w.Last()
		return v
	}
}

func compare(v float64, op Op, bound float64) bool {
	if op == OpLT {
		return v < bound
	}
	return v > bound
}

// advanceLocked walks one instance's state machine for one tick,
// appending any transitions to out.
func (e *Engine) advanceLocked(tick uint64, r Rule, in *instance, cond bool, val float64, out []Transition) []Transition {
	emit := func(to State) {
		out = append(out, Transition{
			Tick: tick, Rule: r.Name, Series: in.series,
			From: in.state, To: to, Value: val,
		})
		in.state = to
		in.sinceTick = tick
	}
	in.value = val
	if cond {
		in.consecutive++
		if in.state == StateInactive || in.state == StateResolved {
			emit(StatePending)
		}
		required := r.For
		if required < 1 {
			required = 1
		}
		if in.state == StatePending && in.consecutive >= required {
			emit(StateFiring)
		}
		return out
	}
	in.consecutive = 0
	switch in.state {
	case StatePending:
		emit(StateInactive)
	case StateFiring:
		emit(StateResolved)
	}
	return out
}

// ResolveAll force-resolves every firing instance and deactivates every
// pending one — the teardown path, so a removed tenant leaves no
// firing alerts behind in /alerts.
func (e *Engine) ResolveAll(tick uint64) []Transition {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	var out []Transition
	for _, key := range e.order {
		in := e.inst[key]
		r := e.rules[in.rule]
		switch in.state {
		case StateFiring:
			out = append(out, Transition{
				Tick: tick, Rule: r.Name, Series: in.series,
				From: in.state, To: StateResolved, Value: in.value,
			})
			in.state = StateResolved
			in.sinceTick = tick
		case StatePending:
			out = append(out, Transition{
				Tick: tick, Rule: r.Name, Series: in.series,
				From: in.state, To: StateInactive, Value: in.value,
			})
			in.state = StateInactive
			in.sinceTick = tick
		}
		in.consecutive = 0
	}
	e.stream = append(e.stream, out...)
	if len(e.stream) > streamCap {
		e.stream = e.stream[len(e.stream)-streamCap:]
	}
	e.mu.Unlock()
	e.mirror(out)
	return out
}

// States returns every instance's visible state, sorted by (rule,
// series) for stable output.
func (e *Engine) States() []StateView {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]StateView, 0, len(e.inst))
	for _, key := range e.order {
		in := e.inst[key]
		r := e.rules[in.rule]
		sv := StateView{
			Rule: r.Name, Series: in.series, State: in.state,
			SinceTick: in.sinceTick, Value: in.value,
			Labels: mergeLabels(e.opts.Labels, r.Labels),
		}
		if r.Kind == KindEWMA {
			sv.Baseline = in.baseline
		}
		out = append(out, sv)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Series < out[j].Series
	})
	return out
}

// Firing returns only the instances currently firing.
func (e *Engine) Firing() []StateView {
	var out []StateView
	for _, sv := range e.States() {
		if sv.State == StateFiring {
			out = append(out, sv)
		}
	}
	return out
}

// Result returns a copy of the bounded transition stream.
func (e *Engine) Result() Result {
	if e == nil {
		return Result{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return Result{Transitions: append([]Transition(nil), e.stream...)}
}

func mergeLabels(base, extra map[string]string) map[string]string {
	if len(base) == 0 && len(extra) == 0 {
		return nil
	}
	out := make(map[string]string, len(base)+len(extra))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// mirror writes firing/resolved transitions to the structured log,
// attaching the trace ID of the newest flight-recorder span matching
// the engine's base labels (the causal hook: "this alert fired, and
// here is the repair trace that was running").
func (e *Engine) mirror(trs []Transition) {
	if e.opts.Logger == nil {
		return
	}
	for _, t := range trs {
		if t.To != StateFiring && t.To != StateResolved {
			continue
		}
		args := []any{
			slog.String("rule", t.Rule),
			slog.String("series", t.Series),
			slog.String("state", string(t.To)),
			slog.Uint64("tick", t.Tick),
			slog.Float64("value", t.Value),
		}
		for _, k := range sortedKeys(e.opts.Labels) {
			args = append(args, slog.String(k, e.opts.Labels[k]))
		}
		if id := e.correlatedTrace(); id != 0 {
			args = append(args, slog.String("trace_id", fmt.Sprintf("%016x", id)))
		}
		if t.To == StateFiring {
			e.opts.Logger.Warn("alert firing", args...)
		} else {
			e.opts.Logger.Info("alert resolved", args...)
		}
	}
}

// correlatedTrace scans the flight recorder newest-first for a span
// whose attributes carry all of the engine's base labels (any span when
// no labels are set) and returns its trace ID, 0 when none matches.
func (e *Engine) correlatedTrace() uint64 {
	if e.opts.Tracer == nil {
		return 0
	}
	recs := e.opts.Tracer.Recorder().Snapshot()
	for i := len(recs) - 1; i >= 0; i-- {
		if spanMatches(recs[i], e.opts.Labels) {
			return recs[i].TraceID
		}
	}
	return 0
}

func spanMatches(rec span.Record, labels map[string]string) bool {
	for k, v := range labels {
		found := false
		for _, a := range rec.Attrs {
			if a.Key == k && a.Value == v {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
