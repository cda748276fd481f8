package alert

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"painter/internal/obs"
	"painter/internal/obs/history"
)

// pushStore is a store over one registry of unlabelled gauges, fed by
// hand one sample round at a time.
type pushStore struct {
	*history.Store
	reg *obs.Registry
}

func newPushStore() pushStore {
	reg := obs.NewRegistry()
	return pushStore{history.New(history.Config{Clock: history.TickClock(0, 1),
		Regs: func() []*obs.Registry { return []*obs.Registry{reg} }}), reg}
}

// round sets one gauge per series and samples them at the next tick.
// Every round of a test names the same series, so no gauge goes stale.
func (p pushStore) round(vals map[string]float64) uint64 {
	for k, v := range vals {
		p.reg.Gauge(k, "").Set(v)
	}
	return p.Sample()
}

func states(e *Engine) map[string]State {
	out := map[string]State{}
	for _, sv := range e.States() {
		out[sv.Rule+"|"+sv.Series] = sv.State
	}
	return out
}

func TestThresholdLifecycle(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{{
		Name: "hot", Kind: KindThreshold, Series: "load",
		Op: OpGT, Value: 10, For: 2, Window: 1,
	}}, Options{})

	// Below bound: inactive.
	tick := st.round(map[string]float64{"load": 5})
	if trs := e.Eval(tick); len(trs) != 0 {
		t.Fatalf("unexpected transitions: %+v", trs)
	}
	// First breach: pending (For=2 holds it).
	tick = st.round(map[string]float64{"load": 15})
	trs := e.Eval(tick)
	if len(trs) != 1 || trs[0].To != StatePending {
		t.Fatalf("want pending, got %+v", trs)
	}
	// Second consecutive breach: firing.
	tick = st.round(map[string]float64{"load": 20})
	trs = e.Eval(tick)
	if len(trs) != 1 || trs[0].From != StatePending || trs[0].To != StateFiring {
		t.Fatalf("want pending→firing, got %+v", trs)
	}
	// Staying hot: no new transitions.
	tick = st.round(map[string]float64{"load": 30})
	if trs := e.Eval(tick); len(trs) != 0 {
		t.Fatalf("firing must be stable, got %+v", trs)
	}
	// Recovery: resolved, and resolved is sticky.
	tick = st.round(map[string]float64{"load": 1})
	trs = e.Eval(tick)
	if len(trs) != 1 || trs[0].To != StateResolved {
		t.Fatalf("want resolved, got %+v", trs)
	}
	tick = st.round(map[string]float64{"load": 1})
	if trs := e.Eval(tick); len(trs) != 0 {
		t.Fatalf("resolved must be sticky, got %+v", trs)
	}
	// Re-breach from resolved: pending again.
	tick = st.round(map[string]float64{"load": 50})
	trs = e.Eval(tick)
	if len(trs) != 1 || trs[0].From != StateResolved || trs[0].To != StatePending {
		t.Fatalf("want resolved→pending, got %+v", trs)
	}
}

func TestPendingFlapsBackToInactive(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{{
		Name: "hot", Kind: KindThreshold, Series: "load",
		Op: OpGT, Value: 10, For: 3,
	}}, Options{})
	e.Eval(st.round(map[string]float64{"load": 15})) // pending
	trs := e.Eval(st.round(map[string]float64{"load": 5}))
	if len(trs) != 1 || trs[0].From != StatePending || trs[0].To != StateInactive {
		t.Fatalf("want pending→inactive, got %+v", trs)
	}
	// A one-tick blip never fires with For=3.
	if got := states(e)["hot|load"]; got != StateInactive {
		t.Fatalf("state = %s, want inactive", got)
	}
}

func TestForOneFiresImmediately(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{{
		Name: "hot", Kind: KindThreshold, Series: "load", Op: OpGT, Value: 10,
	}}, Options{})
	trs := e.Eval(st.round(map[string]float64{"load": 11}))
	if len(trs) != 2 || trs[0].To != StatePending || trs[1].To != StateFiring {
		t.Fatalf("want pending then firing in one tick, got %+v", trs)
	}
}

func TestAbsenceNeedsAdvancingGate(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{ProbeBlackoutRule(3, 1)}, Options{})
	// Both advancing: healthy.
	sent, recv := 0.0, 0.0
	for i := 0; i < 4; i++ {
		sent += 10
		recv += 10
		if trs := e.Eval(st.round(map[string]float64{
			"tm_edge_probes_sent_total":   sent,
			"tm_edge_probe_replies_total": recv,
		})); len(trs) != 0 {
			t.Fatalf("healthy probes must not alert: %+v", trs)
		}
	}
	// Replies flatline while sends continue: blackout fires.
	var fired bool
	for i := 0; i < 4; i++ {
		sent += 10
		trs := e.Eval(st.round(map[string]float64{
			"tm_edge_probes_sent_total":   sent,
			"tm_edge_probe_replies_total": recv,
		}))
		for _, tr := range trs {
			if tr.To == StateFiring {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatal("blackout never fired")
	}
	// Everything flat (edge idle): must resolve, not keep firing.
	var resolved bool
	for i := 0; i < 4; i++ {
		trs := e.Eval(st.round(map[string]float64{
			"tm_edge_probes_sent_total":   sent,
			"tm_edge_probe_replies_total": recv,
		}))
		for _, tr := range trs {
			if tr.To == StateResolved {
				resolved = true
			}
		}
	}
	if !resolved {
		t.Fatal("idle edge must resolve the blackout")
	}
}

// TestBlackoutIgnoresFailedSends: an edge whose socket writes all fail
// counts SendErrors, not ProbesSent, so the blackout gate
// (tm_edge_probes_sent_total) stays flat and the absence rule must not
// fire — nothing was actually put on the wire, so absent replies carry
// no signal. Pre-fix accounting bumped ProbesSent on failed writes,
// which advanced the gate and produced a false blackout here.
func TestBlackoutIgnoresFailedSends(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{ProbeBlackoutRule(3, 1)}, Options{})
	// Healthy warmup so the rule has history.
	sent, recv, errs := 50.0, 50.0, 0.0
	for i := 0; i < 3; i++ {
		sent += 10
		recv += 10
		if trs := e.Eval(st.round(map[string]float64{
			"tm_edge_probes_sent_total":   sent,
			"tm_edge_probe_replies_total": recv,
			"tm_edge_send_errors_total":   errs,
		})); len(trs) != 0 {
			t.Fatalf("healthy probes must not alert: %+v", trs)
		}
	}
	// Socket breaks: every write fails. With the fixed accounting only
	// send_errors advances; probes_sent and replies both flatline.
	for i := 0; i < 6; i++ {
		errs += 10
		trs := e.Eval(st.round(map[string]float64{
			"tm_edge_probes_sent_total":   sent,
			"tm_edge_probe_replies_total": recv,
			"tm_edge_send_errors_total":   errs,
		}))
		for _, tr := range trs {
			if tr.To == StateFiring {
				t.Fatalf("blackout fired on a flat gate (failed sends must not advance probes_sent): %+v", tr)
			}
		}
	}
	// Socket recovers: sends advance again, replies still absent — now
	// the blackout is real and must fire.
	var fired bool
	for i := 0; i < 6 && !fired; i++ {
		sent += 10
		for _, tr := range e.Eval(st.round(map[string]float64{
			"tm_edge_probes_sent_total":   sent,
			"tm_edge_probe_replies_total": recv,
			"tm_edge_send_errors_total":   errs,
		})) {
			if tr.To == StateFiring {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatal("real blackout (sends advancing, replies absent) never fired")
	}
}

// TestConvergenceSLORulesFireAndResolve drives both convergence rules
// over the series a tenant's history holds: core's repair-latency
// histogram, flattened to its _p99, and its dirty-fraction gauge, both
// under the tenant label. Each rule must fire on its own breach and
// resolve once the breach leaves the window.
func TestConvergenceSLORulesFireAndResolve(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetBaseLabels(obs.L("tenant", "acme"))
	repair := reg.Histogram("core_repair_seconds", "")
	dirty := reg.Gauge("core_repair_dirty_fraction", "")
	st := history.New(history.Config{
		Clock: history.TickClock(0, 1),
		Regs:  func() []*obs.Registry { return []*obs.Registry{reg} },
	})
	e := NewEngine(st, ConvergenceSLORules(2, 0.5, 2, 1), Options{})
	const (
		latency = `convergence_slo_latency|core_repair_seconds_p99{tenant="acme"}`
		dirtyK  = `convergence_slo_dirty|core_repair_dirty_fraction{tenant="acme"}`
	)
	step := func(wantLatency, wantDirty State) {
		t.Helper()
		e.Eval(st.Sample())
		got := states(e)
		if got[latency] != wantLatency || got[dirtyK] != wantDirty {
			t.Fatalf("tick %d: latency %q dirty %q, want %q / %q (states %v)",
				st.Tick(), got[latency], got[dirtyK], wantLatency, wantDirty, got)
		}
	}

	repair.Observe(0.1)
	dirty.Set(0.1)
	step(StateInactive, StateInactive)
	// One slow sync lifts the p99 over 2 s.
	repair.Observe(5)
	step(StateFiring, StateInactive)
	// Fast syncs pull the p99 back down; the slow one ages out of the
	// two-tick window a tick later.
	for i := 0; i < 1000; i++ {
		repair.Observe(0.1)
	}
	step(StateFiring, StateInactive)
	step(StateResolved, StateInactive)
	// A sync that dirties most of the config lifts the windowed mean
	// over 0.5 until it, too, ages out.
	dirty.Set(0.95)
	step(StateResolved, StateFiring)
	dirty.Set(0.1)
	step(StateResolved, StateFiring)
	step(StateResolved, StateResolved)
}

func TestEWMADriftFiresAndSelfResolves(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{{
		Name: "drift", Kind: KindEWMA, Series: "share",
		Alpha: 0.5, Band: 0.1, MinSamples: 3,
	}}, Options{})
	// Stable warmup.
	for i := 0; i < 5; i++ {
		if trs := e.Eval(st.round(map[string]float64{"share": 0.25})); len(trs) != 0 {
			t.Fatalf("stable series alerted: %+v", trs)
		}
	}
	// Step change beyond the band: fires.
	trs := e.Eval(st.round(map[string]float64{"share": 0.60}))
	var fired bool
	for _, tr := range trs {
		if tr.To == StateFiring {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("step change must fire, got %+v", trs)
	}
	// Baseline keeps learning: the new level becomes normal and the
	// alert self-resolves.
	var resolved bool
	for i := 0; i < 10 && !resolved; i++ {
		for _, tr := range e.Eval(st.round(map[string]float64{"share": 0.60})) {
			if tr.To == StateResolved {
				resolved = true
			}
		}
	}
	if !resolved {
		t.Fatal("drift alert never self-resolved after baseline caught up")
	}
}

func TestEWMAWarmupSuppresses(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{{
		Name: "drift", Kind: KindEWMA, Series: "share",
		Alpha: 0.2, Band: 0.01, MinSamples: 5,
	}}, Options{})
	// Wild swings during warmup must stay quiet.
	for i, v := range []float64{0.1, 0.9, 0.1, 0.9} {
		if trs := e.Eval(st.round(map[string]float64{"share": v})); len(trs) != 0 {
			t.Fatalf("warmup sample %d alerted: %+v", i, trs)
		}
	}
}

func TestWildcardFansOut(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{{
		Name: "hot", Kind: KindThreshold, Series: "pop_share*", Op: OpGT, Value: 0.5,
	}}, Options{})
	tick := st.round(map[string]float64{
		`pop_share{pop="0"}`: 0.7,
		`pop_share{pop="1"}`: 0.2,
		`other`:              9,
	})
	e.Eval(tick)
	got := states(e)
	if got[`hot|pop_share{pop="0"}`] != StateFiring {
		t.Fatalf("pop 0 must fire: %v", got)
	}
	if got[`hot|pop_share{pop="1"}`] != StateInactive {
		t.Fatalf("pop 1 must stay inactive: %v", got)
	}
	if len(got) != 2 {
		t.Fatalf("wildcard matched wrong series set: %v", got)
	}
}

func TestResolveAllAndStates(t *testing.T) {
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{
		{Name: "a", Kind: KindThreshold, Series: "x", Op: OpGT, Value: 1},
		{Name: "b", Kind: KindThreshold, Series: "y", Op: OpGT, Value: 1, For: 5},
	}, Options{Labels: map[string]string{"tenant": "t1"}})
	tick := st.round(map[string]float64{"x": 5, "y": 5})
	e.Eval(tick) // a firing, b pending

	trs := e.ResolveAll(tick + 1)
	if len(trs) != 2 {
		t.Fatalf("ResolveAll transitions = %+v", trs)
	}
	got := states(e)
	if got["a|x"] != StateResolved || got["b|y"] != StateInactive {
		t.Fatalf("after ResolveAll: %v", got)
	}
	if fs := e.Firing(); len(fs) != 0 {
		t.Fatalf("nothing may stay firing: %+v", fs)
	}
	for _, sv := range e.States() {
		if sv.Labels["tenant"] != "t1" {
			t.Fatalf("base labels missing on %+v", sv)
		}
	}
}

func TestResultBytesDeterministicAndDistinct(t *testing.T) {
	run := func(vals []float64) []byte {
		st := newPushStore()
		e := NewEngine(st.Store, []Rule{{
			Name: "hot", Kind: KindThreshold, Series: "load", Op: OpGT, Value: 10, For: 2,
		}}, Options{})
		for _, v := range vals {
			e.Eval(st.round(map[string]float64{"load": v}))
		}
		return e.Result().Bytes()
	}
	seq := []float64{1, 20, 20, 20, 1, 1, 30, 30}
	if !bytes.Equal(run(seq), run(seq)) {
		t.Fatal("identical runs produced different alert bytes")
	}
	if bytes.Equal(run(seq), run([]float64{1, 1, 1, 1, 1, 1, 1, 1})) {
		t.Fatal("different runs produced identical alert bytes")
	}
}

func TestMirrorLogsFiring(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	st := newPushStore()
	e := NewEngine(st.Store, []Rule{{
		Name: "hot", Kind: KindThreshold, Series: "load", Op: OpGT, Value: 10,
	}}, Options{Labels: map[string]string{"tenant": "t9"}, Logger: logger})
	e.Eval(st.round(map[string]float64{"load": 99}))
	out := buf.String()
	if !strings.Contains(out, "alert firing") || !strings.Contains(out, "rule=hot") ||
		!strings.Contains(out, "tenant=t9") {
		t.Fatalf("firing log missing fields: %q", out)
	}
	buf.Reset()
	e.Eval(st.round(map[string]float64{"load": 0}))
	if !strings.Contains(buf.String(), "alert resolved") {
		t.Fatalf("resolved log missing: %q", buf.String())
	}
}

func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	if e.Eval(1) != nil || e.States() != nil || e.ResolveAll(1) != nil {
		t.Fatal("nil engine must no-op")
	}
	if b := e.Result().Bytes(); len(b) != 4 {
		t.Fatalf("empty result bytes = %d, want 4 (count header)", len(b))
	}
}
