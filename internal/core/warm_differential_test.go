package core

// Warm-path differential. The solver answers freeze and grow queries
// from the warm-reuse layer: cached contribution
// vectors, the singleton expectation table, the incremental Eq. (2) form
// inside the lazy loop, stale-candidate re-stamping and grow-result
// memoization. This file keeps the plain form of each — Eq. (2)
// evaluated per (state, set) by refExpect over the test-owned mirror of
// the routing model (ref_model_test.go), every stale marginal recomputed
// — and pins the production results to it byte for byte: per primitive
// over randomized (candidates, frozen base, dark mask), and end to end
// through computeConfig and repairConfig, before learning, after
// learning (preference facts filter the incremental path's members), on
// a repeated call (memo hit) and after a further Learn (invalidation).

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/usergroup"
)

// refMean is Eq. (2)'s mean for one state and set, ok=false when the
// set is unusable for the state.
func refMean(m *refModel, i int, S []bgp.IngressID) (float64, bool) {
	e := refExpect(m.states[i], S, m.o.params.ReuseKm)
	return e.Mean, e.usable()
}

// statsDiff reports the first state whose cached stats for S differ
// from refExpect's (mean, min, max) bit for bit; NaN in all three must
// mark exactly the states for which S is unusable.
func statsDiff(m *refModel, S []bgp.IngressID, ps prefixStats) error {
	for i, rs := range m.states {
		e := refExpect(rs, S, m.o.params.ReuseKm)
		want := []float64{math.NaN(), math.NaN(), math.NaN()}
		if e.usable() {
			want = []float64{e.Mean, e.Min, e.Max}
		}
		if got := []float64{ps.mean[i], ps.min[i], ps.max[i]}; !sameBits(got, want) {
			return fmt.Errorf("state %d: (mean, min, max) of %v = %v, reference %v", i, S, got, want)
		}
	}
	return nil
}

// refFreeze folds S's contribution into bestFrozen.
func refFreeze(m *refModel, S []bgp.IngressID, bestFrozen []float64, dark []bool) {
	for i := range m.states {
		if dark != nil && dark[i] {
			continue
		}
		if mean, ok := refMean(m, i, S); ok && mean < bestFrozen[i] {
			bestFrozen[i] = mean
		}
	}
}

// refGrow is the lazy greedy grow loop with every marginal computed
// from Eq. (2) over S+x and every stale heap entry recomputed. With exact
// set, every remaining entry is recomputed after each accept and the heap
// re-initialized (Params.ExactGreedy).
func refGrow(m *refModel, cands []bgp.IngressID, bestFrozen []float64, dark []bool, exact bool) []bgp.IngressID {
	o := m.o
	var S []bgp.IngressID
	curE := make([]float64, len(o.states))
	for i := range curE {
		curE[i] = math.Inf(1)
	}
	value := func(i int, set []bgp.IngressID) float64 {
		if mean, ok := refMean(m, i, set); ok {
			return mean
		}
		return math.Inf(1)
	}
	marginal := func(x bgp.IngressID) float64 {
		sx := append(slices.Clone(S), x)
		var delta float64
		for _, i := range o.statesFor(x) {
			if dark != nil && dark[i] {
				continue
			}
			oldVal := math.Min(bestFrozen[i], curE[i])
			newVal := math.Min(bestFrozen[i], value(int(i), sx))
			delta += o.states[i].ug.Weight * (oldVal - newVal)
		}
		return delta
	}
	h := make(candHeap, 0, len(cands))
	for _, x := range cands {
		h = append(h, candItem{ing: x, marginal: marginal(x)})
	}
	heap.Init(&h)
	version := 0
	for h.Len() > 0 {
		if o.params.MaxPeeringsPerPrefix > 0 && len(S) >= o.params.MaxPeeringsPerPrefix {
			break
		}
		top := heap.Pop(&h).(candItem)
		if top.version != version {
			top.marginal, top.version = marginal(top.ing), version
			heap.Push(&h, top)
			continue
		}
		if top.marginal <= 0 {
			break
		}
		S = append(S, top.ing)
		for _, i := range o.statesFor(top.ing) {
			curE[i] = value(int(i), S)
		}
		version++
		if exact {
			for k := range h {
				h[k].marginal, h[k].version = marginal(h[k].ing), version
			}
			heap.Init(&h)
		}
	}
	return S
}

func anycastBase(o *Orchestrator) []float64 {
	base := make([]float64, len(o.states))
	for i, st := range o.states {
		base[i] = st.anycast
	}
	return base
}

// refCompute is computeConfig over the reference primitives.
func refCompute(m *refModel, live func(bgp.IngressID) bool, dark []bool, exact bool) Config {
	o := m.o
	bestFrozen := anycastBase(o)
	cands := o.candidatePeerings(live)
	var cfg Config
	for p := 0; p < o.params.PrefixBudget; p++ {
		S := refGrow(m, cands, bestFrozen, dark, exact)
		if len(S) == 0 {
			break
		}
		cfg.Prefixes = append(cfg.Prefixes, S)
		refFreeze(m, S, bestFrozen, dark)
	}
	return cfg
}

// refRepair is repairConfig over the reference primitives: the dirty
// prefixes regrow in index order against the clean-only base, each
// frozen before the next; then empty prefixes drop and the tail grows up
// to the budget.
func refRepair(m *refModel, cfg Config, dirty []int, live func(bgp.IngressID) bool, dark []bool, exact bool) Config {
	o := m.o
	order := slices.Clone(dirty)
	sort.Ints(order)
	bestFrozen := anycastBase(o)
	for i, S := range cfg.Prefixes {
		if !slices.Contains(order, i) {
			refFreeze(m, S, bestFrozen, dark)
		}
	}
	cands := o.candidatePeerings(live)
	out := cfg.Clone()
	for _, idx := range order {
		S := refGrow(m, cands, bestFrozen, dark, exact)
		out.Prefixes[idx] = S
		refFreeze(m, S, bestFrozen, dark)
	}
	kept := out.Prefixes[:0]
	for _, S := range out.Prefixes {
		if len(S) > 0 {
			kept = append(kept, S)
		}
	}
	out.Prefixes = kept
	for len(out.Prefixes) < o.params.PrefixBudget {
		S := refGrow(m, cands, bestFrozen, dark, exact)
		if len(S) == 0 {
			break
		}
		out.Prefixes = append(out.Prefixes, S)
		refFreeze(m, S, bestFrozen, dark)
	}
	return out
}

// sameBits compares float vectors bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// randomSubset keeps each element with probability p, in input order.
func randomSubset[T any](rng *rand.Rand, xs []T, p float64) []T {
	var out []T
	for _, x := range xs {
		if rng.Float64() < p {
			out = append(out, x)
		}
	}
	return out
}

// checkWarmAgainstReference runs checkWarmMode lazily, then with
// Params.ExactGreedy, and leaves the orchestrator lazy. The grow memo is
// keyed by the grow's inputs, not the mode, so the exact pass starts from
// empty entries, and the lazy pass's entries are put back after it (the
// model has not changed): the next phase starts from them, as it would
// without the exact pass, so an entry that survived a Learn is still
// served and caught there.
func checkWarmAgainstReference(t *testing.T, phase string, m *refModel, rng *rand.Rand, rounds int) {
	t.Helper()
	c := &m.o.warm
	checkWarmMode(t, phase+", lazy", m, rng, rounds, false)
	c.mu.Lock()
	grow, freeze, floats := c.grow, c.freeze, c.floats
	c.mu.Unlock()
	dropEntries(c)
	m.o.params.ExactGreedy = true
	checkWarmMode(t, phase+", exact", m, rng, rounds, true)
	m.o.params.ExactGreedy = false
	c.mu.Lock()
	c.grow, c.freeze, c.floats = grow, freeze, floats
	c.mu.Unlock()
}

// checkWarmMode draws randomized inputs and compares every warm entry
// point with its reference in one mode. rounds controls how many
// primitive draws run; the config-level comparison runs once per call.
func checkWarmMode(t *testing.T, phase string, m *refModel, rng *rand.Rand, rounds int, exact bool) {
	t.Helper()
	o := m.o
	all := o.in.Deploy.AllPeeringIDs()
	n := len(o.states)

	randomDark := func() []bool {
		if rng.Intn(3) == 0 {
			return nil
		}
		dark := make([]bool, n)
		for i := range dark {
			dark[i] = rng.Float64() < 0.15
		}
		return dark
	}
	randomSet := func() []bgp.IngressID {
		S := make([]bgp.IngressID, 0, 6)
		for _, k := range rng.Perm(len(all))[:1+rng.Intn(6)] {
			S = append(S, all[k])
		}
		return S
	}

	// checkVec compares S's stats with the reference, twice: the second
	// call is a cache hit.
	checkVec := func(S []bgp.IngressID) {
		t.Helper()
		for pass := 0; pass < 2; pass++ {
			if err := statsDiff(m, S, o.statsOf(S)); err != nil {
				t.Fatalf("%s pass %d: statsOf: %v", phase, pass, err)
			}
		}
	}
	sameConfig := func(what string, got, want Config) {
		t.Helper()
		if !bytes.Equal(configBytes(got), configBytes(want)) {
			t.Fatalf("%s: %s = %v, reference %v", phase, what, got.Prefixes, want.Prefixes)
		}
	}

	// Queries whose inputs are the same in every phase: a cache entry
	// that survived a Learn would be served here.
	checkVec(all[:min(5, len(all))])
	sameConfig("unrestricted computeConfig", o.computeConfig(nil, nil, nil), refCompute(m, nil, nil, exact))

	for round := 0; round < rounds; round++ {
		dark := randomDark()
		cands := all
		if rng.Intn(2) == 0 {
			cands = randomSubset(rng, all, 0.8)
		}

		// Frozen base: anycast folded with a few random prefix sets; the
		// warm fold and each contribution vector must match the reference.
		wantBase, gotBase := anycastBase(o), anycastBase(o)
		for k := rng.Intn(4); k > 0; k-- {
			S := randomSet()
			checkVec(S)
			refFreeze(m, S, wantBase, dark)
			o.freezePrefix(S, gotBase, dark)
			if !sameBits(gotBase, wantBase) {
				t.Fatalf("%s round %d: freezePrefix(%v) diverges from reference", phase, round, S)
			}
		}

		want := refGrow(m, cands, wantBase, dark, exact)
		for pass := 0; pass < 2; pass++ { // second pass: memo hit
			if got := o.growPrefix(cands, gotBase, dark); !slices.Equal(got, want) {
				t.Fatalf("%s round %d pass %d: growPrefix = %v, reference %v", phase, round, pass, got, want)
			}
		}
	}

	// Config level: a full compute under a live filter and dark mask,
	// then a repair of it after more peerings fail.
	dark := randomDark()
	down := make(map[bgp.IngressID]bool)
	for _, id := range randomSubset(rng, all, 0.1) {
		down[id] = true
	}
	live := func(id bgp.IngressID) bool { return !down[id] }
	wantCfg := refCompute(m, live, dark, exact)
	for pass := 0; pass < 2; pass++ {
		sameConfig("computeConfig", o.computeConfig(nil, live, dark), wantCfg)
	}
	if wantCfg.NumPrefixes() == 0 {
		t.Fatalf("%s: reference config is empty; the differential compared nothing", phase)
	}
	multi := false
	for trial := 0; trial < 3; trial++ {
		// Fail one advertised peering (its prefixes are dirty, as the
		// controller's rule 1 would mark them) plus a random extra set.
		// The last trial repairs a truncated config, so budget is free and
		// the tail-growth loop runs.
		base := wantCfg
		if trial == 2 {
			base = Config{Prefixes: wantCfg.Prefixes[:(len(wantCfg.Prefixes)+1)/2]}
		}
		victim := base.Prefixes[rng.Intn(len(base.Prefixes))][0]
		down2 := map[bgp.IngressID]bool{victim: true}
		for id := range down {
			down2[id] = true
		}
		live2 := func(id bgp.IngressID) bool { return !down2[id] }
		var dirty []int
		for pi, S := range base.Prefixes {
			if slices.Contains(S, victim) || rng.Intn(3) == 0 {
				dirty = append(dirty, pi)
			}
		}
		multi = multi || len(dirty) >= 2
		wantRep := refRepair(m, base, dirty, live2, dark, exact)
		for pass := 0; pass < 2; pass++ {
			sameConfig(fmt.Sprintf("trial %d repairConfig(dirty %v)", trial, dirty),
				o.repairConfig(nil, base, dirty, live2, dark), wantRep)
		}
	}
	if !multi {
		t.Fatalf("%s: no repair trial had two or more dirty prefixes; the multi-prefix regrow went unchecked", phase)
	}
}

func TestWarmPathMatchesReference(t *testing.T) {
	cases := []struct {
		seed    int64
		workers int
		// maxPer caps peerings per prefix; gaps drops a fifth of the
		// latency estimates (no measurement coverage), so Eq. (2) sees
		// NaN members and unusable sets.
		maxPer int
		gaps   bool
	}{
		{seed: 41, workers: 1},
		{seed: 41, workers: 4},
		{seed: 97, workers: 1},
		{seed: 97, workers: 4},
		{seed: 53, workers: 4, maxPer: 3, gaps: true},
	}
	for _, tc := range cases {
		p := DefaultParams(6)
		p.Workers = tc.workers
		p.MaxPeeringsPerPrefix = tc.maxPer
		p.MaxIterations = 2
		p.MinIterBenefitGain = -1 // run both learning rounds
		b := newBench(t, tc.seed)
		in := b.in
		if tc.gaps {
			est := in.EstLatencyMs
			in.EstLatencyMs = func(ug usergroup.UG, ing bgp.IngressID) (float64, bool) {
				if (int(ug.ID)*31+int(ing))%5 == 0 {
					return 0, false
				}
				return est(ug, ing)
			}
		}
		exec := &mirrorExec{inner: b.exec}
		o, err := New(in, exec, p)
		if err != nil {
			t.Fatal(err)
		}
		m := newRefModel(o)
		exec.m = m
		phase := func(s string) string {
			return fmt.Sprintf("seed %d workers %d: %s", tc.seed, tc.workers, s)
		}
		rng := rand.New(rand.NewSource(tc.seed*31 + int64(tc.workers)))
		checkWarmAgainstReference(t, phase("unlearned"), m, rng, 4)

		// Solve learns preference facts and measured latencies; every
		// cache entry built above is now stale and must not be served.
		cfg, err := o.Solve()
		if err != nil {
			t.Fatal(err)
		}
		learned := 0
		for _, rep := range o.Reports() {
			learned += rep.FactsLearned
		}
		if learned == 0 || learned != exec.facts {
			t.Fatalf("Solve reports %d new preference facts, the mirror learned %d; want equal and non-zero", learned, exec.facts)
		}
		// Each round's prediction, made from the grow loop's published
		// stats, against refPredict under the model of that round; then
		// every round's config again under the learned model, whose cache
		// Learn emptied.
		for k, rep := range o.Reports() {
			got := [3]float64{rep.PredictedBenefit, rep.PredictedLower, rep.PredictedUpper}
			if !sameBits(got[:], exec.preds[k][:]) {
				t.Fatalf("%s: iteration %d predicted %v, reference %v", phase("solve"), rep.Iteration, got, exec.preds[k])
			}
			mean, lower, upper := o.PredictBenefit(exec.cfgs[k])
			wMean, wLower, wUpper := refPredict(m, exec.cfgs[k])
			if got, want := []float64{mean, lower, upper}, []float64{wMean, wLower, wUpper}; !sameBits(got, want) {
				t.Fatalf("%s: PredictBenefit(iteration %d config) = %v, reference %v", phase("learned"), rep.Iteration, got, want)
			}
		}
		checkWarmAgainstReference(t, phase("learned"), m, rng, 4)

		// One more Learn, on a config the model has not seen executed:
		// the caches the learned phase filled must be invalidated.
		probe := Config{Prefixes: [][]bgp.IngressID{
			slices.Clone(o.in.Deploy.AllPeeringIDs()[:4]),
			slices.Clone(cfg.Prefixes[0]),
		}}
		obs, err := b.exec.Execute(probe)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := o.Learn(probe, obs), m.learn(probe, obs); got != want {
			t.Fatalf("Learn on the probe config recorded %d facts, the mirror %d", got, want)
		}
		checkWarmAgainstReference(t, phase("relearned"), m, rng, 3)
	}
}

// TestGrowPrefixFrozenFloorEdges pins the grow loop's frozen-floor
// pruning at its two edges against refGrow, which prunes nothing.
//   - Equal estimates: state 0 sees peerings 1, 2 and 3 at 10.7 ms and
//     already has 10.7 frozen. The float mean of three 10.7s is one ulp
//     below 10.7, so once 1 and 2 are in, 3's marginal is that ulp: a
//     floor test without slack would call it zero and stop early.
//   - +Inf in the frozen base: states 3 and 4 see peerings 4 and 5
//     without an estimate, so their terms are Inf − Inf = NaN, and a NaN
//     marginal is accepted when it tops the heap. State 5 moves when 1 is
//     accepted, so 4's NaN is recomputed in the stale refresh as well as
//     the initial sweep.
//
// A third run gives state 0 an infinite weight: its zero terms become
// Inf·0 = NaN, so nothing may be pruned at all. Each run grows lazily and
// with Params.ExactGreedy.
func TestGrowPrefixFrozenFloorEdges(t *testing.T) {
	m := 10.7
	if (m+m+m)/3 >= m {
		t.Fatalf("the mean of three %v does not round below it; the case tests nothing", m)
	}
	nan, inf := math.NaN(), math.Inf(1)
	type ests = map[bgp.IngressID]float64
	states := []struct {
		est  ests
		base float64
	}{
		{ests{1: m, 2: m, 3: m}, m},
		{ests{1: 5}, 50},
		{ests{2: 10}, 50},
		{ests{4: nan}, inf},
		{ests{5: nan}, inf},
		{ests{1: 20, 4: 30}, 50},
	}
	cands := ids(1, 2, 3, 4, 5)
	var peerings []cloud.Peering
	for _, id := range cands {
		peerings = append(peerings, cloud.Peering{ID: id, PoP: 1, PeerASN: 100, ClassAtPeer: bgp.ClassPeer})
	}
	d, err := cloud.New(64500, []cloud.PoP{{ID: 1, Metro: geo.Metros()[0].Code}}, peerings)
	if err != nil {
		t.Fatal(err)
	}
	type runCase struct {
		workers int
		weight0 float64
		exact   bool
	}
	var runs []runCase
	for _, exact := range []bool{false, true} {
		runs = append(runs, runCase{1, 1, exact}, runCase{4, 1, exact}, runCase{1, inf, exact})
	}
	for _, run := range runs {
		o := &Orchestrator{
			in:        Inputs{Deploy: d},
			params:    Params{PrefixBudget: 1, ReuseKm: 3000, Workers: run.workers, ExactGreedy: run.exact},
			byIngress: make([][]int32, 6),
		}
		ref := &refModel{o: o}
		var base []float64
		for i, s := range states {
			dist := ests{}
			for ing := range s.est {
				dist[ing] = 0
				o.byIngress[ing] = append(o.byIngress[ing], int32(i))
			}
			w := 1.0
			if i == 0 {
				w = run.weight0
			}
			st := flatState(usergroup.UG{ID: usergroup.ID(i), Weight: w}, 50, s.est, dist)
			o.states = append(o.states, st)
			ref.states = append(ref.states, newRefState(st))
			base = append(base, s.base)
		}
		want := refGrow(ref, cands, base, nil, run.exact)
		if run.weight0 == 1 && (!slices.Contains(want, 3) || !slices.Contains(want, 4)) {
			t.Fatalf("%+v: reference grew %v; want both 3 (the ulp marginal) and 4 (the NaN marginal) in it", run, want)
		}
		if got := o.growPrefix(cands, base, nil); !slices.Equal(got, want) {
			t.Fatalf("%+v: growPrefix = %v, reference %v", run, got, want)
		}
	}
}

// TestGrowLiveIndexTight pins the grow loop's live index as tight, not
// merely safe: after every grow, each candidate's bitset holds exactly
// the positions whose own term the frozen floor keeps under that grow's
// thr, with S empty. An index that never cleared a bit, or kept a hot
// state's bits past the grow, would leave every configuration
// byte-identical and lose the whole gain, so no output test sees it.
//
// The grows are three configuration builds over a learned small-scale
// model, each prefix frozen before the next: unrestricted; then with
// dark states and failed peerings, whose thresholds fall to −Inf or
// rise from a lower base; then unrestricted again, which raises the dark
// states' thresholds.
func TestGrowLiveIndexTight(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			p := DefaultParams(6)
			p.Workers, p.ExactGreedy = workers, exact
			p.MaxIterations, p.MinIterBenefitGain = 2, -1
			b := newBench(t, 41)
			o, err := New(b.in, b.exec, p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.Solve(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("exact %v workers %d", exact, workers)
			all := o.in.Deploy.AllPeeringIDs()
			dark := make([]bool, len(o.states))
			for i := range dark {
				dark[i] = i%7 == 3
			}
			var up []bgp.IngressID
			for k, x := range all {
				if k%5 != 2 {
					up = append(up, x)
				}
			}
			kept, cleared := 0, 0
			for run, in := range []struct {
				cands []bgp.IngressID
				dark  []bool
			}{{all, nil}, {up, dark}, {all, nil}} {
				base := anycastBase(o)
				for g := 0; g < p.PrefixBudget; g++ {
					S := o.growUncached(in.cands, base, in.dark)
					gs, single := o.warm.scratch, o.singletonRows()
					for _, x := range in.cands {
						idxs, live := o.statesFor(x), gs.live[x]
						if gs.liveGen[x] != gs.gen {
							t.Fatalf("%s run %d grow %d: candidate %d's bitset is a generation behind", name, run, g, x)
						}
						for k, i := range idxs {
							lo := math.Inf(1)
							if mean := single.mean[x][k]; mean < lo {
								lo = mean
							}
							want := !(gs.thr[i] <= lo)
							if hasBit(live, int32(k)) != want {
								t.Fatalf("%s run %d grow %d: candidate %d position %d (state %d, thr %v, mean %v): bit %v, want %v",
									name, run, g, x, k, i, gs.thr[i], single.mean[x][k], !want, want)
							}
							if want {
								kept++
							} else {
								cleared++
							}
						}
						if n := len(idxs) % 64; n != 0 && live[len(live)-1]>>n != 0 {
							t.Fatalf("%s run %d grow %d: candidate %d has bits past its %d positions", name, run, g, x, len(idxs))
						}
					}
					if len(S) == 0 {
						break
					}
					o.freezePrefix(S, base, in.dark)
				}
			}
			if kept == 0 || cleared == 0 {
				t.Fatalf("%s: %d positions kept and %d cleared; want both non-zero", name, kept, cleared)
			}
		}
	}
}

// dropEntries empties the warm cache's grow and freeze entries but keeps
// the singleton table and the parked grow scratch, so the next growPrefix
// runs the grow loop and its published stats are the only entry for the
// set it grows.
func dropEntries(c *warmCache) {
	c.mu.Lock()
	c.grow, c.freeze, c.floats = nil, nil, 0
	c.mu.Unlock()
}

// TestPublishedStatsMatchReference: the grow loop publishes every set it
// grows as (mean, min, max) per state, and the entry equals refExpect's
// bit for bit, NaN exactly where the set is unusable. The learned model
// has dominated members, a NaN measurement, and a compliance correction
// that Learn appended to a byIngress row behind higher state indices.
func TestPublishedStatsMatchReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := DefaultParams(6)
		p.Workers = workers
		p.MaxIterations = 2
		p.MinIterBenefitGain = -1
		b := newBench(t, 41)
		exec := &mirrorExec{inner: b.exec}
		o, err := New(b.in, exec, p)
		if err != nil {
			t.Fatal(err)
		}
		m := newRefModel(o)
		exec.m = m
		cfg, err := o.Solve()
		if err != nil {
			t.Fatal(err)
		}

		// State ci is observed on x, a peering of the first prefix it was
		// not modeled to reach and that a higher state index reaches: x
		// becomes compliant for it at 1 ms and beats the prefix's other
		// members. State ni measures NaN on y, another member.
		S0 := cfg.Prefixes[0]
		x, ci := bgp.InvalidIngress, -1
		for _, cand := range S0 {
			rows := o.statesFor(cand)
			for i, st := range o.states {
				if ci < 0 && st.rank(cand) < 0 && int32(i) < rows[len(rows)-1] {
					x, ci = cand, i
				}
			}
		}
		if ci < 0 || len(S0) < 2 {
			t.Fatalf("first prefix %v: no peering to correct the model with", S0)
		}
		y := S0[0]
		if y == x {
			y = S0[1]
		}
		ni := int(o.statesFor(y)[0])
		if ni == ci {
			ni = int(o.statesFor(y)[1])
		}
		probe := Config{Prefixes: [][]bgp.IngressID{S0}}
		obs := []Observation{
			{UG: o.states[ci].ug.ID, Prefix: 0, Ingress: x, LatencyMs: 1},
			{UG: o.states[ni].ug.ID, Prefix: 0, Ingress: y, LatencyMs: math.NaN()},
		}
		o.Learn(probe, obs)
		m.learn(probe, obs)
		if slices.IsSorted(o.statesFor(x)) {
			t.Fatalf("state %d was appended to peering %d's row in order; want an out-of-order tail", ci, x)
		}

		rng := rand.New(rand.NewSource(int64(workers)))
		all := o.in.Deploy.AllPeeringIDs()
		base := anycastBase(o)
		sawCorrected, sawNaN, sawDominated := false, false, false
		for round := 0; round < 8; round++ {
			var dark []bool
			cands := all
			if round > 0 {
				cands = randomSubset(rng, all, 0.8)
				dark = make([]bool, len(o.states))
				for i := range dark {
					dark[i] = i != ci && i != ni && rng.Float64() < 0.15
				}
			}
			dropEntries(&o.warm)
			S := o.growPrefix(cands, base, dark)
			if len(S) == 0 {
				break
			}
			ps, ok := o.warm.lookupFreeze(setHash(S), S)
			if !ok {
				t.Fatalf("workers %d round %d: grew %v but published no stats", workers, round, S)
			}
			if err := statsDiff(m, S, ps); err != nil {
				t.Fatalf("workers %d round %d: %v", workers, round, err)
			}
			sawCorrected = sawCorrected || slices.Contains(S, x)
			sawNaN = sawNaN || slices.Contains(S, y)
			for _, rs := range m.states {
				for _, k := range S {
					sawDominated = sawDominated || slices.ContainsFunc(S, func(j bgp.IngressID) bool {
						return rs.compliant[j] && rs.compliant[k] && rs.beats[k][j]
					})
				}
			}
			o.freezePrefix(S, base, nil)
		}
		if !sawCorrected || !sawNaN || !sawDominated {
			t.Fatalf("workers %d: grown sets held the corrected peering %d: %v, the NaN one %d: %v, a dominated member: %v; want all",
				workers, x, sawCorrected, y, sawNaN, sawDominated)
		}
	}

	// A member that fails its own reuse test: peering 2's distance is NaN
	// for state 0, so its singleton mean there is NaN, yet its 20 ms
	// estimate is Eq. (2)'s Max over {1, 2}. State 1 makes 2 worth growing.
	d, err := cloud.New(64500, []cloud.PoP{{ID: 1, Metro: geo.Metros()[0].Code}}, []cloud.Peering{
		{ID: 1, PoP: 1, PeerASN: 100, ClassAtPeer: bgp.ClassPeer},
		{ID: 2, PoP: 1, PeerASN: 101, ClassAtPeer: bgp.ClassPeer},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := &Orchestrator{
		in:        Inputs{Deploy: d},
		params:    Params{PrefixBudget: 1, ReuseKm: 3000, Workers: 1},
		byIngress: [][]int32{nil, {0}, {0, 1}},
		states: []*ugState{
			flatState(usergroup.UG{ID: 0, Weight: 1}, 50,
				map[bgp.IngressID]float64{1: 10, 2: 20}, map[bgp.IngressID]float64{1: 0, 2: math.NaN()}),
			flatState(usergroup.UG{ID: 1, Weight: 1}, 50,
				map[bgp.IngressID]float64{2: 5}, map[bgp.IngressID]float64{2: 0}),
		},
	}
	ref := newRefModel(o)
	S := o.growPrefix(ids(1, 2), []float64{50, 50}, nil)
	if len(S) != 2 {
		t.Fatalf("grew %v, want both peerings", S)
	}
	ps, _ := o.warm.lookupFreeze(setHash(S), S)
	if err := statsDiff(ref, S, ps); err != nil {
		t.Fatal(err)
	}
	if ps.max[0] != 20 {
		t.Fatalf("state 0's Max over %v = %v, want 20", S, ps.max[0])
	}
}

// TestPredictReadsPublishedStats: predicting a freshly computed config
// evaluates no Eq. (2), because computeConfig left every prefix's stats in
// the cache; a prefix set the cache has not seen costs one entry.
func TestPredictReadsPublishedStats(t *testing.T) {
	b := newBench(t, 41)
	o, err := New(b.in, nil, DefaultParams(6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.computeConfig(nil, nil, nil)
	if cfg.NumPrefixes() == 0 {
		t.Fatal("computeConfig placed no prefix")
	}
	entries := func() (n, floats int) {
		o.warm.mu.Lock()
		defer o.warm.mu.Unlock()
		for _, es := range o.warm.freeze {
			n += len(es)
		}
		return n, o.warm.floats
	}
	n0, f0 := entries()
	o.PredictBenefit(cfg)
	if n, f := entries(); n != n0 || f != f0 {
		t.Fatalf("PredictBenefit of the computed config: %d freeze entries and %d floats, want %d and %d", n, f, n0, f0)
	}
	unseen := cfg.Clone()
	unseen.Prefixes = append(unseen.Prefixes, o.in.Deploy.AllPeeringIDs()[:3])
	o.PredictBenefit(unseen)
	if n, f := entries(); n != n0+1 || f != f0+3*len(o.states) {
		t.Fatalf("PredictBenefit with one unseen set: %d freeze entries and %d floats, want %d and %d",
			n, f, n0+1, f0+3*len(o.states))
	}
}

// TestWarmCacheCountsWholeGrowEntry: a memoized grow retains its
// candidates, dark mask and result beside the frozen base; all of them
// count toward maxWarmFloats, in 8-byte words.
func TestWarmCacheCountsWholeGrowEntry(t *testing.T) {
	var c warmCache
	cands := make([]bgp.IngressID, 101)
	frozen := make([]float64, 1000)
	dark := make([]bool, 1000)
	const want = 1000 + (101+3+1)/2 + 125 // frozen + IDs/2 + dark/8
	for pass := 0; pass < 2; pass++ {     // the repeated store must not reserve again
		c.storeGrow(growHash(cands, frozen, dark), cands, frozen, dark, ids(1, 2, 3))
		if c.floats != want {
			t.Errorf("store %d: %d words reserved, want %d", pass, c.floats, want)
		}
	}
}
