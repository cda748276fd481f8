package core

import (
	"math"
	"sort"
	"testing"

	"painter/internal/advertise"
	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/netsim"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// testBench assembles a small but non-trivial world for orchestrator
// tests: ~150 stubs, 12 PoPs, 2 transit providers.
type testBench struct {
	world *netsim.World
	ugs   *usergroup.Set
	in    Inputs
	exec  *WorldExecutor
}

func newBench(t *testing.T, seed int64) *testBench {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: seed, Tier1: 4, Tier2: 24, Stubs: 150,
		MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.4, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{Name: "t", PoPMetros: 12, PeerFrac: 0.8, TransitProviders: 2, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := netsim.New(g, d, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	ugs, err := usergroup.Build(g, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in, covered, err := SimInputs(w, ugs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &testBench{
		world: w,
		ugs:   covered,
		in:    in,
		exec:  NewWorldExecutor(w, covered, 0, seed+3),
	}
}

func TestOrchestratorSolveProducesValidConfig(t *testing.T) {
	b := newBench(t, 41)
	o, err := New(b.in, b.exec, DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumPrefixes() == 0 {
		t.Fatal("orchestrator produced empty config")
	}
	if cfg.NumPrefixes() > 5 {
		t.Fatalf("budget exceeded: %d prefixes", cfg.NumPrefixes())
	}
	if err := cfg.Validate(b.world.Deploy); err != nil {
		t.Fatalf("invalid config: %v", err)
	}
	if len(o.Reports()) == 0 {
		t.Fatal("no iteration reports")
	}
}

func TestOrchestratorBeneficial(t *testing.T) {
	b := newBench(t, 43)
	o, err := New(b.in, b.exec, DefaultParams(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.Solve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(b.world, b.ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit <= 0 {
		t.Fatalf("PAINTER benefit = %v, want positive", res.Benefit)
	}
	if res.FractionOfPossible() < 0.3 {
		t.Errorf("PAINTER captured only %.1f%% of possible benefit with 8 prefixes",
			res.FractionOfPossible()*100)
	}
}

func TestOrchestratorBeatsBaselinesAtEqualBudget(t *testing.T) {
	b := newBench(t, 47)
	const budget = 6
	o, err := New(b.in, b.exec, DefaultParams(budget))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.Solve()
	if err != nil {
		t.Fatal(err)
	}
	painter, err := Evaluate(b.world, b.ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]advertise.Config{
		"one-per-pop":     advertise.OnePerPoP(b.world.Deploy, budget),
		"one-per-peering": advertise.OnePerPeering(b.world.Deploy, budget),
		"one-per-pop-reuse": advertise.OnePerPoPWithReuse(
			b.world.Deploy, budget, 3000),
	} {
		res, err := Evaluate(b.world, b.ugs, base)
		if err != nil {
			t.Fatal(err)
		}
		if painter.Benefit < res.Benefit*0.95 {
			t.Errorf("PAINTER (%.2f ms) should not lose to %s (%.2f ms) at budget %d",
				painter.Benefit, name, res.Benefit, budget)
		}
	}
}

func TestLearningImprovesRealizedBenefit(t *testing.T) {
	b := newBench(t, 53)
	p := DefaultParams(6)
	p.MaxIterations = 4
	p.MinIterBenefitGain = -1 // never early-stop; we want all iterations
	o, err := New(b.in, b.exec, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Solve(); err != nil {
		t.Fatal(err)
	}
	reps := o.Reports()
	if len(reps) < 2 {
		t.Fatalf("want >=2 learning iterations, got %d", len(reps))
	}
	first := reps[0]
	bestLater := first.RealizedBenefit
	for _, r := range reps[1:] {
		if r.RealizedBenefit > bestLater {
			bestLater = r.RealizedBenefit
		}
	}
	if bestLater < first.RealizedBenefit-1e-9 {
		t.Errorf("no later iteration matched iteration 1: first=%.3f best-later=%.3f",
			first.RealizedBenefit, bestLater)
	}
	if first.FactsLearned == 0 {
		t.Error("first iteration learned no preference facts (world has hidden preferences)")
	}
}

func TestPredictionUncertaintyNarrowsWithLearning(t *testing.T) {
	b := newBench(t, 59)
	p := DefaultParams(6)
	p.MaxIterations = 4
	p.MinIterBenefitGain = -1
	o, err := New(b.in, b.exec, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Solve(); err != nil {
		t.Fatal(err)
	}
	reps := o.Reports()
	if len(reps) < 2 {
		t.Skip("converged in one iteration")
	}
	first := reps[0].PredictedUpper - reps[0].PredictedLower
	last := reps[len(reps)-1].PredictedUpper - reps[len(reps)-1].PredictedLower
	slack := 0.1 * reps[0].PredictedBenefit
	if slack < 0.5 {
		slack = 0.5
	}
	if last > first+slack {
		t.Errorf("uncertainty widened with learning: %.3f -> %.3f", first, last)
	}
}

func TestMoreBudgetNeverHurts(t *testing.T) {
	b := newBench(t, 61)
	var prev float64 = -1
	for _, budget := range []int{1, 3, 8} {
		o, err := New(b.in, b.exec, DefaultParams(budget))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := o.Solve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evaluate(b.world, b.ugs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Tolerance: learning noise can cause small non-monotonicity.
		if res.Benefit < prev*0.9 {
			t.Errorf("benefit dropped sharply with more budget: %v -> %v at %d", prev, res.Benefit, budget)
		}
		if res.Benefit > prev {
			prev = res.Benefit
		}
	}
}

func TestOfflineModeNoExecutor(t *testing.T) {
	b := newBench(t, 67)
	o, err := New(b.in, nil, DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumPrefixes() == 0 {
		t.Error("offline solve produced empty config")
	}
	if len(o.Reports()) != 1 {
		t.Errorf("offline mode should produce exactly one report, got %d", len(o.Reports()))
	}
	if o.Reports()[0].RealizedBenefit != 0 {
		t.Error("offline mode cannot have realized benefit")
	}
}

func TestExactAndLazyGreedyAgreeApproximately(t *testing.T) {
	b := newBench(t, 71)
	pLazy := DefaultParams(4)
	pLazy.MaxIterations = 1
	pExact := pLazy
	pExact.ExactGreedy = true

	oL, err := New(b.in, nil, pLazy)
	if err != nil {
		t.Fatal(err)
	}
	cfgL, err := oL.Solve()
	if err != nil {
		t.Fatal(err)
	}
	oE, err := New(b.in, nil, pExact)
	if err != nil {
		t.Fatal(err)
	}
	cfgE, err := oE.Solve()
	if err != nil {
		t.Fatal(err)
	}
	rL, err := Evaluate(b.world, b.ugs, cfgL)
	if err != nil {
		t.Fatal(err)
	}
	rE, err := Evaluate(b.world, b.ugs, cfgE)
	if err != nil {
		t.Fatal(err)
	}
	if rL.Benefit < 0.8*rE.Benefit {
		t.Errorf("lazy greedy (%.3f) much worse than exact greedy (%.3f)", rL.Benefit, rE.Benefit)
	}
}

func TestParamValidation(t *testing.T) {
	b := newBench(t, 73)
	if _, err := New(b.in, nil, Params{PrefixBudget: 0}); err == nil {
		t.Error("zero budget should fail")
	}
	// A NaN radius fails every reuse test, so every prefix would be
	// unusable and Solve would place nothing without an error.
	for _, r := range []float64{-5, math.NaN()} {
		if _, err := New(b.in, nil, Params{PrefixBudget: 1, ReuseKm: r}); err == nil {
			t.Errorf("ReuseKm %v should fail", r)
		}
	}
	// +Inf switches the D_reuse exclusion off; it is a valid radius.
	o, err := New(b.in, nil, Params{PrefixBudget: 1, ReuseKm: math.Inf(1)})
	if err != nil {
		t.Fatalf("ReuseKm +Inf: %v", err)
	}
	if cfg, err := o.Solve(); err != nil || cfg.NumPrefixes() != 1 {
		t.Errorf("ReuseKm +Inf: Solve = %d prefixes, %v; want 1", cfg.NumPrefixes(), err)
	}
	if _, err := New(Inputs{}, nil, DefaultParams(1)); err == nil {
		t.Error("incomplete inputs should fail")
	}
}

// flatState builds a ugState from map-shaped inputs — the convenient
// literal form for model tests, converted to the flat layout the solver
// uses.
func flatState(ug usergroup.UG, anycast float64,
	est, popDist map[bgp.IngressID]float64) *ugState {

	ids := make([]bgp.IngressID, 0, len(est))
	maxID := bgp.IngressID(-1)
	for ing := range est {
		ids = append(ids, ing)
		if ing > maxID {
			maxID = ing
		}
	}
	for ing := range popDist {
		if ing > maxID {
			maxID = ing
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	st := &ugState{
		ug:        ug,
		compliant: ids,
		est:       make([]float64, len(ids)),
		popDist:   make([]float64, maxID+1),
		anycast:   anycast,
	}
	for r, ing := range ids {
		st.est[r] = est[ing]
	}
	for ing, d := range popDist {
		st.popDist[ing] = d
	}
	return st
}

func TestExpectationFiltering(t *testing.T) {
	// Hand-built ugState exercising Eq. (2) filters directly.
	st := flatState(usergroup.UG{}, 50,
		map[bgp.IngressID]float64{1: 10, 2: 30, 3: 100},
		map[bgp.IngressID]float64{1: 100, 2: 500, 3: 9000})
	// All three advertised, reuse 3000km: ingress 3 (9000km vs min 100km)
	// is excluded from the mean by D_reuse but still widens the
	// uncertainty range (the exclusion is an assumption, not a fact).
	sc := new(exScratch)
	e := st.expectSc(sc, []bgp.IngressID{1, 2, 3}, 3000)
	if !e.usable() || math.Abs(e.Mean-20) > 1e-9 || e.N != 2 {
		t.Errorf("expect = %+v, want mean 20 over 2", e)
	}
	if e.Min != 10 || e.Max != 100 {
		t.Errorf("bounds = [%v,%v], want [10,100]", e.Min, e.Max)
	}
	// Learned preference: 2 beats 1 → 1 excluded everywhere (a fact),
	// mean = 30, range tightens to [30,100].
	if n := learnOnce(st, []bgp.IngressID{1, 2}, 2, 30); n != 1 || !hasFact(st, 2, 1) {
		t.Fatalf("learn recorded %d facts (2 beats 1: %v), want the one", n, hasFact(st, 2, 1))
	}
	e = st.expectSc(sc, []bgp.IngressID{1, 2, 3}, 3000)
	if math.Abs(e.Mean-30) > 1e-9 || e.N != 1 {
		t.Errorf("after preference: %+v, want mean 30 over 1", e)
	}
	if e.Min != 30 || e.Max != 100 {
		t.Errorf("bounds after fact = [%v,%v], want [30,100]", e.Min, e.Max)
	}
	// Non-compliant-only advertisement: unusable.
	e = st.expectSc(sc, []bgp.IngressID{99}, 3000)
	if e.usable() {
		t.Error("prefix with no compliant ingress must be unusable")
	}
	// Huge reuse distance admits everything (a state without the fact).
	st = flatState(usergroup.UG{}, 50,
		map[bgp.IngressID]float64{1: 10, 2: 30, 3: 100},
		map[bgp.IngressID]float64{1: 100, 2: 500, 3: 9000})
	e = st.expectSc(sc, []bgp.IngressID{1, 2, 3}, 1e9)
	if e.N != 3 || math.Abs(e.Mean-140.0/3) > 1e-9 {
		t.Errorf("unfiltered expect = %+v", e)
	}
}

func TestLearnUpdatesFactsAndEstimates(t *testing.T) {
	st := flatState(usergroup.UG{}, 0,
		map[bgp.IngressID]float64{1: 10, 2: 30, 3: 100},
		map[bgp.IngressID]float64{1: 1, 2: 1, 3: 1})
	n := learnOnce(st, []bgp.IngressID{1, 2, 3}, 2, 25)
	if n != 2 {
		t.Errorf("learned %d facts, want 2 (2 beats 1, 2 beats 3)", n)
	}
	if ms, ok := st.estOf(2); !ok || ms != 25 {
		t.Errorf("estimate not replaced by measurement: %v, %v", ms, ok)
	}
	// Repeat observation: no new facts.
	if n := learnOnce(st, []bgp.IngressID{1, 2, 3}, 2, 25); n != 0 {
		t.Errorf("repeat observation learned %d facts, want 0", n)
	}
	// Routing change: now 1 wins; the contradicting "2 beats 1" fact must
	// be removed.
	learnOnce(st, []bgp.IngressID{1, 2}, 1, 9)
	if hasFact(st, 2, 1) {
		t.Error("contradicted fact '2 beats 1' not removed")
	}
	if !hasFact(st, 1, 2) {
		t.Error("new fact '1 beats 2' not recorded")
	}
	if n := factCount(st); n != 2 {
		t.Errorf("%d facts stored, want 2 (2 beats 3, 1 beats 2)", n)
	}
}

func TestLearnCorrectsComplianceModel(t *testing.T) {
	st := flatState(usergroup.UG{}, 0,
		map[bgp.IngressID]float64{1: 10},
		map[bgp.IngressID]float64{1: 1})
	learnOnce(st, []bgp.IngressID{1, 7}, 7, 42) // observed ingress we thought non-compliant
	if st.rank(7) < 0 {
		t.Error("observed ingress should be marked compliant")
	}
	if ms, ok := st.estOf(7); !ok || ms != 42 {
		t.Error("measured latency not recorded for corrected ingress")
	}
}

func TestEvaluateAnycastOnlyIsZero(t *testing.T) {
	b := newBench(t, 79)
	res, err := Evaluate(b.world, b.ugs, advertise.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit != 0 {
		t.Errorf("anycast-only benefit = %v, want 0", res.Benefit)
	}
	if res.PossibleBenefit <= 0 {
		t.Error("possible benefit should be positive (inflation exists)")
	}
}

func TestEvaluateOnePerPeeringFullCaptures(t *testing.T) {
	// Advertising a unique prefix via every peering exposes every
	// policy-compliant ingress... but per-AS selection still picks ONE
	// route per prefix; with one peering per prefix the UG reaches that
	// exact ingress. So full one-per-peering must capture ~all possible
	// benefit (modulo day-0 noise = none).
	b := newBench(t, 83)
	all := len(b.world.Deploy.AllPeeringIDs())
	cfg := advertise.OnePerPeering(b.world.Deploy, all)
	res, err := Evaluate(b.world, b.ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.FractionOfPossible(); f < 0.999 {
		t.Errorf("full one-per-peering captures %.4f of possible, want ~1", f)
	}
}

// --- Convergence-loop regression tests (bugfix satellites) -----------------

// stubExec is an Executor returning fixed observations.
type stubExec struct {
	obs   []Observation
	calls int
}

func (s *stubExec) Execute(Config) ([]Observation, error) {
	s.calls++
	return s.obs, nil
}

// TestSolveEarlyExitsOnNonPositiveBenefit: with an executor that never
// observes anything, realized benefit is 0 every round and no facts are
// learned. The old `prevBenefit > 0` guard never fired for non-positive
// benefits, so such degenerate runs burned all MaxIterations; the
// absolute-delta fallback must stop after the second (no-gain) round.
func TestSolveEarlyExitsOnNonPositiveBenefit(t *testing.T) {
	b := newBench(t, 89)
	p := DefaultParams(3)
	p.MaxIterations = 8
	exec := &stubExec{}
	o, err := New(b.in, exec, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := len(o.Reports()); got != 2 {
		t.Errorf("degenerate run produced %d iterations, want early exit after 2", got)
	}
	if exec.calls != 2 {
		t.Errorf("executor ran %d times, want 2", exec.calls)
	}
}

// TestSolveEarlyExitsOnNegativeBenefit covers the strictly negative
// plateau: equal negative benefits with no new facts must also stop.
func TestSolveEarlyExitsOnNegativeBenefit(t *testing.T) {
	b := newBench(t, 97)
	p := DefaultParams(3)
	p.MaxIterations = 8
	// Observations worse than anycast for every UG: realized benefit < 0
	// (weights positive, latency above anycast), and after round one the
	// same observations teach nothing new.
	var obs []Observation
	for _, ug := range b.ugs.UGs {
		any, err := b.in.AnycastMs(ug)
		if err != nil {
			t.Fatal(err)
		}
		_ = any
		obs = append(obs, Observation{UG: ug.ID, Prefix: 0, Ingress: bgp.IngressID(1 << 20), LatencyMs: 1e6})
		break // one UG is enough; others stay at anycast
	}
	exec := &stubExec{obs: obs}
	o, err := New(b.in, exec, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := len(o.Reports()); got > 3 {
		t.Errorf("negative-benefit plateau ran %d iterations, want early exit", got)
	}
}

// TestSolveAllNaNBenefitReturnsError: a pathological measurement feed
// (NaN anycast) makes every iteration's RealizedBenefit NaN. NaN never
// compares greater, so the unguarded best comparison used to fall
// through and return the zero Config with a nil error.
func TestSolveAllNaNBenefitReturnsError(t *testing.T) {
	b := newBench(t, 101)
	in := b.in
	in.AnycastMs = func(ug usergroup.UG) (float64, error) { return math.NaN(), nil }
	p := DefaultParams(3)
	p.MaxIterations = 2
	o, err := New(in, b.exec, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.Solve()
	if err == nil {
		t.Fatalf("all-NaN benefits returned cfg with %d prefixes and nil error; want an error",
			cfg.NumPrefixes())
	}
}

// TestGrowPrefixTieBreaksByIngressID: equal-marginal candidates must pop
// in IngressID order, not heap-internal order. Three identical
// candidates (same estimate, same distance, same UG) tie exactly; the
// grown prefix must contain the lowest ID.
func TestGrowPrefixTieBreaksByIngressID(t *testing.T) {
	cands := []bgp.IngressID{5, 3, 9}
	st := flatState(usergroup.UG{ID: 1, Weight: 1}, 100,
		map[bgp.IngressID]float64{5: 10, 3: 10, 9: 10},
		map[bgp.IngressID]float64{5: 0, 3: 0, 9: 0})
	byIngress := make([][]int32, 10)
	byIngress[3], byIngress[5], byIngress[9] = []int32{0}, []int32{0}, []int32{0}
	// The grow loop reads its singleton table per deployment peering.
	var peerings []cloud.Peering
	for _, id := range cands {
		peerings = append(peerings, cloud.Peering{ID: id, PoP: 1, PeerASN: 100, ClassAtPeer: bgp.ClassPeer})
	}
	d, err := cloud.New(64500, []cloud.PoP{{ID: 1, Metro: geo.Metros()[0].Code}}, peerings)
	if err != nil {
		t.Fatal(err)
	}
	o := &Orchestrator{
		in:        Inputs{Deploy: d},
		params:    Params{PrefixBudget: 1, ReuseKm: 3000},
		states:    []*ugState{st},
		byIngress: byIngress,
	}
	for run := 0; run < 5; run++ {
		S := o.growPrefix(cands, []float64{st.anycast}, nil)
		if len(S) != 1 || S[0] != 3 {
			t.Fatalf("run %d: grew %v, want [3] (lowest tied IngressID)", run, S)
		}
	}
	// The tie-break must be insensitive to candidate order (the warm-start
	// repair path grows from differently ordered slices).
	perms := [][]bgp.IngressID{{9, 5, 3}, {3, 9, 5}, {9, 3, 5}}
	for _, p := range perms {
		S := o.growPrefix(p, []float64{st.anycast}, nil)
		if len(S) != 1 || S[0] != 3 {
			t.Fatalf("candidates %v: grew %v, want [3]", p, S)
		}
	}
}
