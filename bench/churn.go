package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"painter/internal/chaos"
	"painter/internal/core"
	"painter/internal/obs"
	"painter/internal/obs/history"
	"painter/internal/obs/span"
	"painter/internal/tenant"
)

// stepSample is one Manager.Step.
type stepSample struct {
	ms  float64
	rep core.SyncReport
	// rec is the step's SyncRecord, read back from Manager.Reports
	// (traced pass only).
	rec tenant.SyncRecord
}

// fleet is one tenant.Manager with its tenants built and paused, so
// that the benchmark owns the cadence.
type fleet struct {
	m       *tenant.Manager
	ids     []string
	specs   []tenant.Spec
	setup   time.Duration
	samples [][]stepSample
	wall    time.Duration
	events  uint64
}

func (f *fleet) close() { f.m.Close() }

// chaosSeed fixes the tenants' fault schedules (tenant i gets
// chaosSeed + i). Like the world, the schedule is part of the problem
// instance: it sets which share of the ticks dirty the configuration,
// and the median tick sits where that share puts it. Across ten
// schedules drawn from the run seed tick_p50_ms spread over 28 % of its
// median and churn_events_per_s over 10 %.
const chaosSeed = 100

// tenantSpec is tenant i's desired state.
func tenantSpec(rc *runCtx, i, ticks int) tenant.Spec {
	return tenant.Spec{
		Scale: rc.sz.ScaleName, Seed: worldSeed + 17*int64(i), TickMs: 1, Paused: true,
		Chaos: tenant.ChaosSpec{Profile: "default", Seed: chaosSeed + int64(i), Ticks: ticks},
	}
}

func newFleet(rc *runCtx, t *tracing, tenants, ticks int) (*fleet, error) {
	f := &fleet{m: tenant.NewManager(tenant.Params{
		ReconcileInterval: time.Hour,
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		Trace:             t.tr,
	})}
	start := time.Now()
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t%02d", i)
		spec := tenantSpec(rc, i, ticks)
		if _, err := f.m.Apply(id, spec, 0); err != nil {
			f.close()
			return nil, fmt.Errorf("apply %s: %w", id, err)
		}
		f.ids, f.specs = append(f.ids, id), append(f.specs, spec)
	}
	sp := t.start(nil, "tenant.reconcile")
	f.m.Reconcile()
	sp.Finish()
	f.setup = time.Since(start)
	for _, id := range f.ids {
		st, ok := f.m.Status(id)
		if !ok || st.Error != "" {
			f.close()
			return nil, fmt.Errorf("tenant %s did not build: %s", id, st.Error)
		}
	}
	return f, nil
}

// run drives every tenant's schedule to completion, closed loop, one
// goroutine per tenant, timing each Step. A tenant whose Step errors
// stops there; the error is recorded as a failed operation.
func (f *fleet) run(rc *runCtx, t *tracing, stepSpan string) {
	f.samples = make([][]stepSample, len(f.ids))
	errs := make([]error, len(f.ids))
	var wg sync.WaitGroup
	start := time.Now()
	for i, id := range f.ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			st, _ := f.m.Status(id)
			steps := st.ScheduleTicks + 2
			out := make([]stepSample, 0, steps)
			for k := 0; k < steps; k++ {
				op := t.start(nil, "churn.op", span.A("tenant", id), span.A("tick", fmt.Sprint(k)))
				sp := t.start(op, stepSpan)
				t0 := time.Now()
				rep, err := f.m.Step(id)
				d := time.Since(t0)
				sp.Finish()
				op.Finish()
				if err != nil {
					errs[i] = fmt.Errorf("%s step %d: %w", id, k, err)
					break
				}
				s := stepSample{ms: ms(d), rep: rep}
				if t.on() {
					if recs, ok := f.m.Reports(id); ok && len(recs) > 0 {
						s.rec = recs[len(recs)-1]
					}
				}
				out = append(out, s)
			}
			f.samples[i] = out
		}(i, id)
	}
	wg.Wait()
	f.wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			rc.res.Attempted++
			rc.res.fail("%v", err)
		}
	}
	for _, id := range f.ids {
		st, _ := f.m.Status(id)
		f.events += st.EventsApplied
	}
}

func (f *fleet) stepMs() []float64 {
	var out []float64
	for _, ss := range f.samples {
		for _, s := range ss {
			out = append(out, s.ms)
		}
	}
	return out
}

// twinBenefit rebuilds tenant i's world from its spec, replays the same
// fault schedule on it, and evaluates the tenant's final configuration
// against that ground truth.
func twinBenefit(rc *runCtx, t *tracing, f *fleet, i int) (core.EvalResult, error) {
	spec := f.specs[i]
	op := t.start(nil, "churn.twin", span.A("tenant", f.ids[i]))
	defer op.Finish()
	wd, err := buildWorld(t, op, rc.sz.Scale, spec.Seed)
	if err != nil {
		return core.EvalResult{}, err
	}
	sched, err := tenantSchedule(wd, spec)
	if err != nil {
		return core.EvalResult{}, err
	}
	for _, se := range sched {
		if err := wd.w.ApplyEvent(se.Ev); err != nil {
			return core.EvalResult{}, fmt.Errorf("twin replay: %w", err)
		}
	}
	cfg, _ := f.m.Config(f.ids[i])
	return core.Evaluate(wd.w, wd.all, cfg)
}

// tenantSchedule is the schedule tenant.buildInstance generates for
// spec, in the order the tenant applies it.
func tenantSchedule(wd *world, spec tenant.Spec) (chaos.Schedule, error) {
	gc := chaos.DefaultGenConfig(spec.Chaos.Seed)
	gc.Ticks = spec.Chaos.Ticks
	sched, err := chaos.Generate(wd.g, wd.d, gc)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].Tick < sched[b].Tick })
	return sched, nil
}

func runChurn(rc *runCtx) error {
	res := rc.res
	var overhead float64
	var solo []float64
	if rc.trace {
		// Same single tenant, same schedule, tracing off then on: the
		// difference is the tracing overhead, and the traced one is the
		// uncontended baseline of tenant.contention_x.
		var ref []float64
		for _, t := range []*tracing{{}, rc.t} {
			f, err := newFleet(rc, t, 1, rc.sz.SoloTicks)
			if err != nil {
				return err
			}
			f.run(rc, t, "tenant.solo_step")
			ref, solo = solo, f.stepMs()
			f.close()
		}
		if m := median(ref); m > 0 {
			overhead = 100 * (median(solo)/m - 1)
		}
	}

	ticks := rc.sz.ChurnTicks
	if rc.trace {
		ticks = ticks * 3 / 5 // room for the two solo passes and the probes
	}
	f, err := newFleet(rc, rc.t, rc.sz.ChurnTenants, ticks)
	if err != nil {
		return err
	}
	defer f.close()
	before := sumCounters(f.m.Registries())
	f.run(rc, rc.t, "tenant.step")
	after := sumCounters(f.m.Registries())

	var all, dirty []float64
	for _, ss := range f.samples {
		res.Attempted += len(ss)
		for _, s := range ss {
			all = append(all, s.ms)
			if s.rep.Repaired || s.rep.FullSolve {
				dirty = append(dirty, s.ms)
			}
		}
	}
	if len(all) == 0 || len(dirty) == 0 {
		return fmt.Errorf("churn produced %d steps, %d of them dirtying", len(all), len(dirty))
	}

	var fracs []float64
	for i, id := range f.ids {
		st, _ := f.m.Status(id)
		if !st.ScheduleDone {
			res.violate("%s did not finish its schedule (tick %d of %d)", id, st.ScheduleTick, st.ScheduleTicks)
		}
		if st.Error != "" {
			res.violate("%s: %s", id, st.Error)
		}
		ev, err := twinBenefit(rc, rc.t, f, i)
		if err != nil {
			res.violate("%s twin: %v", id, err)
			continue
		}
		if math.Abs(ev.Benefit-st.FinalBenefitMs) > 1e-6*math.Max(1, math.Abs(ev.Benefit)) {
			res.violate("%s: twin-world benefit %.6f ms differs from the tenant's own %.6f ms", id, ev.Benefit, st.FinalBenefitMs)
		}
		fracs = append(fracs, ev.FractionOfPossible())
	}

	asc := sorted(all)
	res.Samples["tick_p50_ms"], res.Samples["tick_p99_ms"], res.Samples["sync_dirty_ms"] = len(all), len(all), len(dirty)
	res.Named["setup_s"] = f.setup.Seconds()
	res.Named["tick_p50_ms"] = quantile(asc, 0.5)
	res.Named["tick_p99_ms"] = quantile(asc, 0.99)
	res.Named["sync_dirty_ms"] = median(dirty)
	res.Named["churn_events_per_s"] = float64(f.events) / f.wall.Seconds()
	res.Named["benefit_frac"] = mean(fracs)
	res.E2E["setup_s"] = res.Named["setup_s"]
	res.E2E["op_p50_ms"] = res.Named["tick_p50_ms"]
	res.E2E["op_tail_ms"] = res.Named["tick_p99_ms"]
	res.E2E["ops_per_s"] = res.Named["churn_events_per_s"]
	res.E2E["control_ms"] = res.Named["sync_dirty_ms"]
	res.E2E["quality_frac"] = res.Named["benefit_frac"]
	res.note("%d tenants at %s scale (world seeds %d, +17, ...), chaos profile default, %d ticks each: %d steps, %d events, %d dirtying syncs",
		len(f.ids), rc.sz.ScaleName, worldSeed, ticks, len(all), f.events, len(dirty))

	if rc.trace {
		return churnLayers(rc, f, solo, overhead, before, after)
	}
	return nil
}

// churnLayers computes the traced pass's rows that come from counters
// and samples rather than spans, and runs the probes.
func churnLayers(rc *runCtx, f *fleet, solo []float64, overhead float64, before, after map[string]uint64) error {
	res := rc.res
	L := res.Layer
	L["proc.trace_overhead_pct"] = overhead

	byOutcome := map[string][]float64{}
	var analysis, dirtyFrac, anycast []float64
	for _, ss := range f.samples {
		for _, s := range ss {
			byOutcome[s.rec.Outcome] = append(byOutcome[s.rec.Outcome], s.rec.DurationMs)
			analysis = append(analysis, s.ms-s.rec.DurationMs)
			if s.rep.Repaired || s.rep.FullSolve {
				dirtyFrac = append(dirtyFrac, s.rep.DirtyFraction)
				anycast = append(anycast, float64(s.rep.AnycastChanged))
			}
		}
	}
	L["core.sync_noop_ms"] = median(byOutcome["noop"])
	L["core.sync_repair_ms"] = median(byOutcome["repair"])
	L["core.sync_full_ms"] = median(byOutcome["full-solve"])
	if n := len(byOutcome["repair"]) + len(byOutcome["full-solve"]); n > 0 {
		L["core.full_solve_share"] = float64(len(byOutcome["full-solve"])) / float64(n)
		L["core.repair_share"] = float64(len(byOutcome["repair"])) / float64(n)
	}
	L["core.dirty_frac_mean"] = mean(dirtyFrac)
	L["core.anycast_changed_mean"] = mean(anycast)
	L["tenant.analysis_ms"] = median(analysis)
	if m := median(solo); m > 0 {
		L["tenant.contention_x"] = res.Named["tick_p50_ms"] / m
	}

	for row, counter := range map[string]string{
		"netsim.resolve_hits":          "netsim_resolve_cache_hits_total",
		"netsim.resolve_misses":        "netsim_resolve_cache_misses_total",
		"netsim.resolve_full_runs":     "netsim_resolve_full_total",
		"netsim.resolve_delta_runs":    "netsim_resolve_delta_total",
		"netsim.prefscore_misses":      "netsim_prefscore_cache_misses_total",
		"netsim.resolve_invalidations": "netsim_resolve_cache_invalidations_total",
	} {
		L[row] = float64(after[counter] - before[counter])
	}

	// A benchmark-owned history store over the fleet's registries: what
	// one sample of every series costs, and how many series there are.
	hist := history.New(history.Config{
		Clock: history.TickClock(0, int64(time.Millisecond)),
		Regs:  f.m.Registries,
	})
	hs := rc.t.start(nil, "churn.history")
	for i := 0; i < 50; i++ {
		sp := rc.t.start(hs, "obs.history_sample")
		hist.Sample()
		sp.Finish()
	}
	hs.Finish()
	L["obs.history_series"] = float64(len(hist.Names()))

	probe := rc.t.start(nil, "churn.probes")
	defer probe.Finish()
	wd, err := buildWorld(rc.t, probe, rc.sz.Scale, f.specs[0].Seed)
	if err != nil {
		return err
	}
	if err := wd.withInputs(rc.t, probe); err != nil {
		return err
	}
	cfg, _ := f.m.Config(f.ids[0])
	sets := prefixSets(wd, cfg)
	if err := probeResolve(rc.t, probe, wd, sets); err != nil {
		return err
	}
	if err := probePropagate(rc.t, probe, wd, sets, L); err != nil {
		return err
	}
	if err := probeDelta(rc.t, probe, wd, rc.seed, rc.sz.DeltaDraws, L); err != nil {
		return err
	}
	sched, err := tenantSchedule(wd, f.specs[0])
	if err != nil {
		return err
	}
	return probeEvents(rc.t, probe, wd, sched, rc.sz.EventProbes)
}

func churnSpans(L map[string]float64, st spanTimes) {
	setupLayerMetrics(L, st)
	L["tenant.reconcile_ms"] = st.dur["tenant.reconcile"][len(st.dur["tenant.reconcile"])-1] / 1e6
	L["tenant.step_ms"] = st.medianMs("tenant.step")
	L["tenant.solo_step_p50_ms"] = st.medianMs("tenant.solo_step")
	L["obs.history_sample_us"] = st.medianUs("obs.history_sample")
	probeSpans(L, st)
}

// sumCounters adds up every counter of the registries by metric name,
// across label sets (tenants).
func sumCounters(regs []*obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range regs {
		for key, v := range r.Snapshot().Counters {
			name, _, _ := strings.Cut(key, "{")
			out[name] += v
		}
	}
	return out
}
