package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"painter/internal/bgp"
	"painter/internal/core"
	"painter/internal/obs/span"
)

// timedExecutor is the benchmark-owned wrapper around the Executor
// handed to core.New: it times the measurement rounds (a bench span per
// Execute, child of the solve's span) and notes when the orchestrator
// produced its first configuration.
type timedExecutor struct {
	inner  core.Executor
	t      *tracing
	parent *span.Span

	mu      sync.Mutex
	firstAt time.Time
}

func (e *timedExecutor) Execute(cfg core.Config) ([]core.Observation, error) {
	start := time.Now()
	sp := e.t.start(e.parent, "core.execute")
	obs, err := e.inner.Execute(cfg)
	sp.Finish()
	e.mu.Lock()
	if e.firstAt.IsZero() {
		e.firstAt = start
	}
	e.mu.Unlock()
	return obs, err
}

// solveOnce is one operation of solve-cold: core.New + Solve on a
// freshly built world.
type solveOnce struct {
	setup, solve, firstConfig time.Duration
	cfg                       core.Config
	cfgJSON                   []byte
	orch                      *core.Orchestrator
	wd                        *world
	proc                      procDelta
}

func solveFresh(rc *runCtx, t *tracing, rep, workers int) (*solveOnce, error) {
	op := t.start(nil, "solve-cold.op", span.A("rep", fmt.Sprint(rep)), span.A("workers", fmt.Sprint(workers)))
	defer op.Finish()

	t0 := time.Now()
	wd, err := buildWorld(t, op, rc.sz.Scale, worldSeed)
	if err != nil {
		return nil, err
	}
	if err := wd.withInputs(t, op); err != nil {
		return nil, err
	}
	out := &solveOnce{wd: wd, setup: time.Since(t0)}

	budget := int(rc.sz.SolveBudgetFrac * float64(len(wd.d.AllPeeringIDs())))
	if budget < 1 {
		budget = 1
	}
	params := core.DefaultParams(budget)
	params.Workers = workers
	params.Trace = t.tr

	runtime.GC() // the previous rep's world is garbage; do not bill it to this solve
	before := markProc()
	t1 := time.Now()
	ssp := t.start(op, "core.solve")
	exec := &timedExecutor{inner: core.NewWorldExecutor(wd.w, wd.ugs, 0, rc.seed), t: t, parent: ssp}
	nsp := t.start(ssp, "core.new")
	out.orch, err = core.New(wd.in, exec, params)
	nsp.Finish()
	if err == nil {
		out.cfg, err = out.orch.Solve()
	}
	ssp.Finish()
	out.solve = time.Since(t1)
	out.proc = before.until(markProc())
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	if !exec.firstAt.IsZero() {
		out.firstConfig = exec.firstAt.Sub(t1)
	}
	out.cfgJSON, err = out.cfg.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("marshal config: %w", err)
	}
	return out, nil
}

func runSolveCold(rc *runCtx) error {
	res := rc.res
	budget := time.Duration(rc.seconds) * time.Second
	reps := rc.sz.SolveMinReps
	var untraced *solveOnce
	if rc.trace {
		// The traced pass spends its time on one untraced solve (the
		// reference for the tracing overhead), one traced, one at
		// Workers: 1, and the layer probes.
		reps = 1
		var err error
		if untraced, err = solveFresh(rc, &tracing{}, 0, 0); err != nil {
			return err
		}
	}

	// The world build is a few milliseconds; twenty more of them, beside
	// the one each rep needs, make its median worth comparing.
	var setups, solves, firsts []float64
	for i := 0; i < rc.sz.SolveExtraSetups; i++ {
		t0 := time.Now()
		wd, err := buildWorld(rc.t, nil, rc.sz.Scale, worldSeed)
		if err == nil {
			err = wd.withInputs(rc.t, nil)
		}
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var ref *solveOnce
	var refFrac float64
	var timed time.Duration
	start := time.Now()
	for rep := 0; rep < reps || (!rc.trace && time.Since(start) < budget && rep < rc.sz.SolveMaxReps); rep++ {
		res.Attempted++
		so, err := solveFresh(rc, rc.t, rep, 0)
		if err != nil {
			res.fail("rep %d: %v", rep, err)
			continue
		}
		timed += so.setup + so.solve
		setups = append(setups, so.setup.Seconds())
		solves = append(solves, so.solve.Seconds())
		firsts = append(firsts, ms(so.firstConfig))

		ev, err := core.Evaluate(so.wd.w, so.wd.ugs, so.cfg)
		if err != nil {
			res.fail("rep %d: evaluate: %v", rep, err)
			continue
		}
		frac := ev.FractionOfPossible()
		if ref == nil {
			ref, refFrac = so, frac
			continue
		}
		// Same instance, cold both times: anything but the same bytes is
		// nondeterminism in the solver.
		if !bytes.Equal(so.cfgJSON, ref.cfgJSON) {
			res.fail("rep %d: config differs from rep 0 (%d vs %d bytes)", rep, len(so.cfgJSON), len(ref.cfgJSON))
		}
		if frac != refFrac {
			res.fail("rep %d: benefit_frac %.9f differs from rep 0's %.9f", rep, frac, refFrac)
		}
	}
	if ref == nil {
		return fmt.Errorf("no solve succeeded")
	}

	solveP50 := median(solves)
	solveMax := sorted(solves)[len(solves)-1]
	res.Samples["solve_s"], res.Samples["setup_s"] = len(solves), len(setups)
	res.Named["setup_s"] = median(setups)
	res.Named["solve_s"] = solveP50
	res.Named["solve_max_s"] = solveMax
	res.Named["solves_per_s"] = float64(len(solves)) / timed.Seconds()
	res.Named["first_config_ms"] = median(firsts)
	res.Named["benefit_frac"] = refFrac
	res.E2E["setup_s"] = median(setups)
	res.E2E["op_p50_ms"] = solveP50 * 1000
	res.E2E["op_tail_ms"] = solveMax * 1000
	res.E2E["ops_per_s"] = res.Named["solves_per_s"]
	res.E2E["control_ms"] = res.Named["first_config_ms"]
	res.E2E["quality_frac"] = refFrac
	res.note("instance: %s scale, world seed %d: %d peerings, %d PoPs, %d user groups, budget %d prefixes (%.0f %% of peerings)",
		rc.sz.Scale, worldSeed, len(ref.wd.d.AllPeeringIDs()), len(ref.wd.d.PoPs), ref.wd.ugs.Len(),
		int(rc.sz.SolveBudgetFrac*float64(len(ref.wd.d.AllPeeringIDs()))), 100*rc.sz.SolveBudgetFrac)

	if rc.trace {
		rc.res.Layer["proc.trace_overhead_pct"] = 100 * (ref.solve.Seconds()/untraced.solve.Seconds() - 1)
		return solveColdLayers(rc, ref)
	}
	return nil
}

// solveColdLayers is the traced pass's extra work: the Workers: 1
// solve, the exact counters of the traced solve, and the netsim and
// bgp probes on the final configuration.
func solveColdLayers(rc *runCtx, ref *solveOnce) error {
	res := rc.res
	L := res.Layer

	w1, err := solveFresh(rc, rc.t, 1, 1)
	if err != nil {
		return fmt.Errorf("workers=1 solve: %w", err)
	}
	if !bytes.Equal(w1.cfgJSON, ref.cfgJSON) {
		res.fail("Workers: 1 config differs from the default-workers config")
	}
	L["core.solve_w1_s"] = w1.solve.Seconds()
	L["core.parallel_x"] = w1.solve.Seconds() / ref.solve.Seconds()

	reports := ref.orch.Reports()
	L["core.iterations"] = float64(len(reports))
	L["core.prefixes"] = float64(ref.cfg.NumPrefixes())
	L["core.advertisements"] = float64(ref.cfg.TotalAdvertisements())
	for _, r := range reports {
		L["core.facts_learned"] += float64(r.FactsLearned)
	}
	L["core.solve_mallocs"] = float64(ref.proc.mallocs)
	L["core.solve_alloc_mb"] = ref.proc.allocMB

	cs := ref.wd.w.CacheStats() // the world was fresh, so totals are the solve's (plus one Evaluate)
	L["netsim.resolve_hits"] = float64(cs.ResolveHits)
	L["netsim.resolve_misses"] = float64(cs.ResolveMisses)
	L["netsim.resolve_full_runs"] = float64(cs.ResolveFullRuns)
	L["netsim.resolve_delta_runs"] = float64(cs.ResolveDeltaRuns)
	L["netsim.prefscore_misses"] = float64(cs.PrefScoreMisses)
	L["netsim.resolve_invalidations"] = float64(cs.ResolveInvalidations)

	probe := rc.t.start(nil, "solve-cold.probes")
	fresh, err := buildWorld(rc.t, probe, rc.sz.Scale, worldSeed)
	if err != nil {
		return err
	}
	sets := prefixSets(fresh, ref.cfg)
	if err := probeResolve(rc.t, probe, fresh, sets); err != nil {
		return err
	}
	if err := probePropagate(rc.t, probe, fresh, sets, L); err != nil {
		return err
	}
	if err := probeDelta(rc.t, probe, fresh, rc.seed, rc.sz.DeltaDraws, L); err != nil {
		return err
	}
	probe.Finish()
	return nil
}

// solveColdSpans turns the bench spans of a traced solve-cold run into
// per-layer rows. The first core.solve span is the default-workers
// solve the rows describe; the second is the Workers: 1 solve.
func solveColdSpans(L map[string]float64, st spanTimes) {
	setupLayerMetrics(L, st)
	first := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return xs[0] / 1e6
	}
	L["core.new_ms"] = first(st.dur["core.new"])
	solveMs, selfMs := first(st.dur["core.solve"]), first(st.self["core.solve"])
	L["core.execute_ms"] = solveMs - selfMs - L["core.new_ms"]
	L["core.compute_ms"] = selfMs
	probeSpans(L, st)
}

// prefixSets is the anycast set followed by each prefix of cfg.
func prefixSets(wd *world, cfg core.Config) [][]bgp.IngressID {
	sets := [][]bgp.IngressID{wd.d.AllPeeringIDs()}
	return append(sets, cfg.Prefixes...)
}
