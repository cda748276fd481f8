package core

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"painter/internal/bgp"
	"painter/internal/obs"
	"painter/internal/obs/span"
	"painter/internal/usergroup"
)

// Params are Algorithm 1's hyperparameters plus loop controls.
type Params struct {
	// PrefixBudget is PB: how many prefixes may be advertised (beyond
	// the implicit anycast prefix).
	PrefixBudget int
	// ReuseKm is D_reuse, the minimum reuse distance (km).
	ReuseKm float64
	// MaxIterations bounds the outer learning loop.
	MaxIterations int
	// MinIterBenefitGain terminates learning when an iteration improves
	// realized weighted benefit by less than this fraction of the
	// previous iteration's benefit (§3.1: "terminate learning when
	// little marginal benefit increase").
	MinIterBenefitGain float64
	// ExactGreedy recomputes every candidate's marginal at every step
	// instead of using lazy evaluation. Slower; used for the ablation
	// bench validating the lazy optimization.
	ExactGreedy bool
	// MaxPeeringsPerPrefix caps reuse breadth per prefix (0 = no cap).
	MaxPeeringsPerPrefix int
	// Workers is the worker count for the sharded grow/freeze loops
	// (0 = GOMAXPROCS, 1 = fully sequential). Any value produces
	// byte-identical configurations: each per-candidate marginal is
	// computed wholly by one worker over a fixed state order, so float
	// summation order never depends on scheduling.
	Workers int
	// Obs, when non-nil, receives solve-loop metrics (iterations,
	// prefixes placed, accepted marginal benefit, facts learned, wall
	// times). Nil disables instrumentation at one-branch cost.
	Obs *obs.Registry
	// Trace, when non-nil, records the solve loop's causal structure —
	// solve → iteration → prefix placement → propagate/resolve — into
	// the tracer's flight recorder. Nil disables tracing at one-branch
	// cost (the nil-safe no-op tracer).
	Trace *span.Tracer
}

// DefaultParams mirrors the paper's defaults (D_reuse = 3,000 km).
func DefaultParams(budget int) Params {
	return Params{
		PrefixBudget:       budget,
		ReuseKm:            3000,
		MaxIterations:      4,
		MinIterBenefitGain: 0.01,
	}
}

// IterationReport records one advertise→measure→learn round.
type IterationReport struct {
	Iteration int
	Config    Config
	// PredictedBenefit is Eq. (1) evaluated with Eq. (2) expectations
	// before executing, with uncertainty bounds from per-prefix latency
	// ranges.
	PredictedBenefit, PredictedLower, PredictedUpper float64
	// RealizedBenefit is Eq. (1) evaluated with the observed latencies.
	RealizedBenefit float64
	// FactsLearned counts new preference facts from this round.
	FactsLearned int
	// PrefixesUsed / AdvertisementsUsed measure footprint.
	PrefixesUsed, AdvertisementsUsed int
}

// Orchestrator is the Advertisement Orchestrator.
type Orchestrator struct {
	in     Inputs
	exec   Executor
	params Params
	states []*ugState
	// byIngress is an inverted index: peering → indices of UGs for which
	// that peering is policy-compliant. §4 counts on a peering touching
	// few UGs, but at prototype scale one is compliant for over half of
	// them; the sparsity that pays is the grow loop's frozen floor
	// (growUncached), which skips every UG a candidate can no longer
	// improve on. Indexed by raw IngressID; rows are grown on demand when
	// learning corrects the compliance model.
	byIngress [][]int32
	// stateIdx maps UG ID → index into states, built once so Learn and
	// RealizedBenefit don't rebuild lookup maps per iteration.
	stateIdx map[usergroup.ID]int32

	m solveMetrics

	// warm holds the exact-reuse caches (warmcache.go); Learn
	// invalidates it.
	warm warmCache

	reports []IterationReport
}

// statesFor returns the state indices for which ing is compliant
// (shared; read-only). Out-of-range IDs yield nil.
func (o *Orchestrator) statesFor(ing bgp.IngressID) []int32 {
	if ing < 0 || int(ing) >= len(o.byIngress) {
		return nil
	}
	return o.byIngress[ing]
}

// indexState appends state i to ing's inverted-index row, growing the
// index when an observed ingress exceeds the deployment's ID range.
func (o *Orchestrator) indexState(ing bgp.IngressID, i int32) {
	if ing < 0 {
		return
	}
	if int(ing) >= len(o.byIngress) {
		grown := make([][]int32, int(ing)+1)
		copy(grown, o.byIngress)
		o.byIngress = grown
	}
	o.byIngress[ing] = append(o.byIngress[ing], i)
}

// workerCount resolves Params.Workers for the sharded loops.
func (o *Orchestrator) workerCount() int {
	if o.params.Workers > 0 {
		return o.params.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// New builds an orchestrator.
func New(in Inputs, exec Executor, p Params) (*Orchestrator, error) {
	if p.PrefixBudget < 1 {
		return nil, fmt.Errorf("core: prefix budget must be >= 1")
	}
	if !(p.ReuseKm >= 0) { // NaN would make every prefix unusable
		return nil, fmt.Errorf("core: ReuseKm must be >= 0, got %v", p.ReuseKm)
	}
	if p.MaxIterations < 1 {
		p.MaxIterations = 1
	}
	states, err := newUGStates(in)
	if err != nil {
		return nil, err
	}
	o := &Orchestrator{in: in, exec: exec, params: p, states: states,
		stateIdx: make(map[usergroup.ID]int32, len(states)), m: newSolveMetrics(p.Obs)}
	maxID := bgp.InvalidIngress
	for _, st := range states {
		if n := len(st.compliant); n > 0 && st.compliant[n-1] > maxID {
			maxID = st.compliant[n-1]
		}
	}
	o.byIngress = make([][]int32, maxID+1)
	for i, st := range states {
		for _, ing := range st.compliant {
			o.byIngress[ing] = append(o.byIngress[ing], int32(i))
		}
		o.stateIdx[st.ug.ID] = int32(i)
	}
	return o, nil
}

// Reports returns the per-iteration history after Solve.
func (o *Orchestrator) Reports() []IterationReport { return o.reports }

// Solve runs the full outer loop of Algorithm 1: compute a configuration
// greedily, execute it, learn from observed ingresses, and repeat until
// benefit stops improving or MaxIterations is reached. It returns the
// configuration with the highest realized benefit across iterations
// (greedy with a refined model is not guaranteed monotone, so the
// operator keeps the best observed strategy).
func (o *Orchestrator) Solve() (Config, error) {
	if o.m.on() {
		start := time.Now()
		defer func() { o.m.solveSeconds.Observe(time.Since(start).Seconds()) }()
	}
	root := o.params.Trace.StartRoot("core.solve",
		span.A("budget", strconv.Itoa(o.params.PrefixBudget)),
		span.A("ugs", strconv.Itoa(len(o.states))))
	defer root.Finish()
	var best Config
	bestSet := false
	bestBenefit := math.Inf(-1)
	prevBenefit := math.Inf(-1)
	prevSet := false
	for iter := 0; iter < o.params.MaxIterations; iter++ {
		iterSpan := root.StartChild("core.iteration",
			span.A("iteration", strconv.Itoa(iter+1)))
		cfg := o.computeConfig(iterSpan, nil, nil)
		rep := IterationReport{
			Iteration:          iter + 1,
			Config:             cfg.Clone(),
			PrefixesUsed:       cfg.NumPrefixes(),
			AdvertisementsUsed: cfg.TotalAdvertisements(),
		}
		rep.PredictedBenefit, rep.PredictedLower, rep.PredictedUpper = o.PredictBenefit(cfg)

		if o.exec == nil {
			// Offline mode: no executor, single computation.
			o.reports = append(o.reports, rep)
			iterSpan.Finish()
			return cfg, nil
		}
		var execStart time.Time
		if o.m.on() {
			execStart = time.Now()
		}
		execSpan := iterSpan.StartChild("core.execute",
			span.A("prefixes", strconv.Itoa(cfg.NumPrefixes())))
		var obs []Observation
		var err error
		if te, ok := o.exec.(TracedExecutor); ok {
			obs, err = te.ExecuteTraced(cfg, execSpan)
		} else {
			obs, err = o.exec.Execute(cfg)
		}
		execSpan.Finish()
		if err != nil {
			iterSpan.Finish()
			return Config{}, fmt.Errorf("core: execute iteration %d: %w", iter+1, err)
		}
		if o.m.on() {
			o.m.executeSeconds.Observe(time.Since(execStart).Seconds())
		}
		rep.RealizedBenefit = o.RealizedBenefit(obs)
		rep.FactsLearned = o.Learn(cfg, obs)
		o.m.iterations.Inc()
		o.m.factsLearned.Add(uint64(rep.FactsLearned))
		o.m.realizedBenefit.Set(rep.RealizedBenefit)
		o.reports = append(o.reports, rep)
		iterSpan.SetAttr("facts_learned", strconv.Itoa(rep.FactsLearned))
		iterSpan.Finish()
		// NaN never compares greater, so an unguarded `>` would silently
		// keep the zero Config when every iteration's benefit is NaN (a
		// pathological executor or measurement feed). Track explicitly
		// whether any iteration produced a comparable benefit; -Inf is
		// comparable (a terrible config is still a config).
		if !math.IsNaN(rep.RealizedBenefit) && (!bestSet || rep.RealizedBenefit > bestBenefit) {
			bestSet = true
			bestBenefit = rep.RealizedBenefit
			best = cfg
		}

		// Terminate learning when an iteration adds little benefit and no
		// new facts. For positive benefits the threshold is relative
		// (MinIterBenefitGain as a fraction of the previous benefit, as in
		// §3.1); when realized benefit is zero or negative a relative gain
		// is meaningless (the old `prevBenefit > 0` guard simply never
		// fired and degenerate runs burned all MaxIterations), so fall
		// back to an absolute delta scaled by max(|prev|, 1).
		if prevSet && !math.IsNaN(rep.RealizedBenefit) {
			scale := prevBenefit
			if scale <= 0 {
				scale = math.Abs(prevBenefit)
				if scale < 1 {
					scale = 1
				}
			}
			gain := (rep.RealizedBenefit - prevBenefit) / scale
			if gain < o.params.MinIterBenefitGain && rep.FactsLearned == 0 {
				break
			}
		}
		if !math.IsNaN(rep.RealizedBenefit) && (!prevSet || rep.RealizedBenefit > prevBenefit) {
			prevSet = true
			prevBenefit = rep.RealizedBenefit
		}
	}
	if !bestSet {
		return Config{}, fmt.Errorf("core: no iteration produced a comparable realized benefit (all NaN)")
	}
	return best, nil
}

// --- Greedy configuration computation (Algorithm 1 inner loops) -----------

// candHeap is a max-heap of cached candidate marginals for lazy greedy.
type candItem struct {
	ing      bgp.IngressID
	marginal float64
	version  int
}
type candHeap []candItem

func (h candHeap) Len() int { return len(h) }

// Less orders by marginal benefit, breaking ties by IngressID so
// equal-marginal candidates pop in a total, input-independent order.
// Without the tie-break the pop order of ties depends on heap-internal
// layout — deterministic for one call sequence, but a latent hole for
// the warm-start repair path, which grows prefixes from differently
// ordered candidate slices than a cold solve.
func (h candHeap) Less(i, j int) bool {
	if h[i].marginal != h[j].marginal {
		return h[i].marginal > h[j].marginal
	}
	return h[i].ing < h[j].ing
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(candItem)) }
func (h *candHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// candidatePeerings returns the deployment's peerings filtered by live
// (nil = all), in deployment (ID) order.
func (o *Orchestrator) candidatePeerings(live func(bgp.IngressID) bool) []bgp.IngressID {
	all := o.in.Deploy.AllPeeringIDs()
	if live == nil {
		return all
	}
	out := make([]bgp.IngressID, 0, len(all))
	for _, id := range all {
		if live(id) {
			out = append(out, id)
		}
	}
	return out
}

// freezePrefix folds prefix S's contribution into bestFrozen, skipping
// dark states. The per-state Eq. (2) means come from S's cached stats,
// so folding is a plain min scan.
func (o *Orchestrator) freezePrefix(S []bgp.IngressID, bestFrozen []float64, dark []bool) {
	vec := o.frozenVec(S)
	for i := range bestFrozen {
		if dark != nil && dark[i] {
			continue
		}
		// The NaN sentinel for "unusable" loses the strict <.
		if vec[i] < bestFrozen[i] {
			bestFrozen[i] = vec[i]
		}
	}
}

// frozenVec returns prefix S's contribution vector: each state's
// Eq. (2) mean, NaN where the prefix is unusable (shared, read-only).
func (o *Orchestrator) frozenVec(S []bgp.IngressID) []float64 { return o.statsOf(S).mean }

// statsOf returns prefix S's Eq. (2) stats, cached by set content until
// the model changes. The grow loop publishes every set it grows
// (publishStats); any other set is evaluated here, once.
func (o *Orchestrator) statsOf(S []bgp.IngressID) prefixStats {
	key := setHash(S)
	if ps, ok := o.warm.lookupFreeze(key, S); ok {
		return ps
	}
	ps := newPrefixStats(len(o.states))
	workers := o.workerCount()
	scs := growScratches(workers)
	defer putScratches(scs)
	parallelWorkers(len(o.states), workers, func(w, i int) {
		if e := o.states[i].expectSc(scs[w], S, o.params.ReuseKm); e.Usable() {
			ps.mean[i], ps.min[i], ps.max[i] = e.Mean, e.Min, e.Max
		}
	})
	o.warm.storeFreeze(key, S, ps)
	return ps
}

// singleTable is the per-ingress view of the model the grow loop reads:
// for state statesFor(ing)[k], mean[ing][k] is Eq. (2)'s mean under the
// one-peering set {ing} (NaN when unusable) and rank[ing][k] is ing's
// rank in that state's compliant set.
type singleTable struct {
	mean [][]float64
	rank [][]int32
}

// singletonRows returns (building on first use per model version) the
// singleton table. growPrefix's initial sweep — the bulk of a grow —
// probes exactly the singleton means, so the table turns it into a table
// walk; the ranks spare every later probe its binary search.
func (o *Orchestrator) singletonRows() *singleTable {
	if t := o.warm.lookupSingle(); t != nil {
		return t
	}
	// Only deployment peerings get rows: they are the only grow
	// candidates, and popDist is only defined for deployment IDs (learned
	// compliance corrections can index states under foreign ingress IDs).
	t := &singleTable{mean: make([][]float64, len(o.byIngress)), rank: make([][]int32, len(o.byIngress))}
	reuse := o.params.ReuseKm
	for _, ing := range o.in.Deploy.AllPeeringIDs() {
		idxs := o.statesFor(ing)
		if len(idxs) == 0 {
			continue
		}
		mean, rank := make([]float64, len(idxs)), make([]int32, len(idxs))
		for k, i := range idxs {
			st := o.states[i]
			r := st.rank(ing)
			rank[k] = int32(r)
			// expectSc({ing}): a rank's row never holds its own bit, so the
			// lone member is never dominated, is its own nearest member,
			// and its estimate is the mean unless NaN or outside the radius
			// (with New's radius >= 0, d <= d+reuse fails only for NaN d).
			mean[k] = math.NaN()
			if ms, d := st.est[r], st.popDist[ing]; !math.IsNaN(ms) && d <= d+reuse {
				mean[k] = ms
			}
		}
		t.mean[ing], t.rank[ing] = mean, rank
	}
	return o.warm.storeSingle(t)
}

// growScratches checks out one expectation scratch per worker.
func growScratches(workers int) []*exScratch {
	scs := make([]*exScratch, workers)
	for w := range scs {
		scs[w] = exPool.Get().(*exScratch)
	}
	return scs
}

func putScratches(scs []*exScratch) {
	for _, sc := range scs {
		exPool.Put(sc)
	}
}

// growPrefix implements the inner while-loop: advertise one prefix via
// as many peerings as keep marginal benefit positive, in ranked order of
// modeled improvement. Candidates come from allPeerings; dark states
// (nil = none) contribute no marginal benefit. growPrefix mutates no
// orchestrator state beyond the warm cache.
//
// The result is a deterministic function of (candidates, frozen base,
// dark mask) for a fixed learned model, so an exact input match returns
// the memoized set — the common case under churn, where recovery events
// restore a previously grown state bit-for-bit.
func (o *Orchestrator) growPrefix(allPeerings []bgp.IngressID, bestFrozen []float64, dark []bool) []bgp.IngressID {
	key := growHash(allPeerings, bestFrozen, dark)
	if S, ok := o.warm.lookupGrow(key, allPeerings, bestFrozen, dark); ok {
		return S
	}
	S := o.growUncached(allPeerings, bestFrozen, dark)
	o.warm.storeGrow(key, allPeerings, bestFrozen, dark, S)
	return S
}

// incMember is one accepted peering as one state sees it: the values
// expectSc would read for it, plus its rank for the dominance test.
type incMember struct {
	dist, est float64
	rank      int32
}

// growScratch is the lazy grow loop's working memory, sized to the
// model once and reset per grow (warmCache keeps the returned scratch
// until the next Learn). Between grows everything but thr is at its
// initial value: curE and minDist +Inf, stateVer 0, members empty, masks
// zero, inS false.
type growScratch struct {
	// inS[ing] marks the peerings accepted into the growing prefix.
	inS []bool
	// curE[i] is Eq. (2) for the growing prefix, +Inf when unusable.
	curE []float64
	// stateVer[i] is the version at which curE[i] last moved.
	stateVer []int
	// members[i] lists the growing prefix's peerings compliant for state
	// i, in accept order; minDist[i] is the distance to the nearest of
	// them, and mask[i] the OR of their preference rows (nil for a state
	// without learned facts, whose rows would all be empty).
	members [][]incMember
	minDist []float64
	mask    [][]uint64
	// minEst[i] is the least non-NaN est among state i's members.
	minEst []float64
	// thr[i] is the stale refresh's skip threshold for state i, filled at
	// the start of each grow (growUncached).
	thr []float64
	// finiteWeights holds when every state's weight is finite, the frozen
	// floor's precondition (growUncached).
	finiteWeights bool
	// touched lists the states with members, for the reset.
	touched []int32
	margs   []float64
	heap    candHeap
}

func (o *Orchestrator) newGrowScratch() *growScratch {
	n := len(o.states)
	gs := &growScratch{
		inS:           make([]bool, len(o.byIngress)),
		curE:          make([]float64, n),
		stateVer:      make([]int, n),
		members:       make([][]incMember, n),
		minDist:       make([]float64, n),
		mask:          make([][]uint64, n),
		minEst:        make([]float64, n),
		thr:           make([]float64, n),
		finiteWeights: true,
	}
	words := 0
	for i, st := range o.states {
		gs.curE[i], gs.minDist[i], gs.minEst[i] = math.Inf(1), math.Inf(1), math.Inf(1)
		if len(st.rows) > 0 {
			words += st.words
		}
		if math.IsInf(st.ug.Weight, 0) || math.IsNaN(st.ug.Weight) {
			gs.finiteWeights = false
		}
	}
	slab := make([]uint64, words)
	for i, st := range o.states {
		if len(st.rows) > 0 {
			gs.mask[i], slab = slab[:st.words:st.words], slab[st.words:]
		}
	}
	return gs
}

// reset undoes one grow of prefix S.
func (gs *growScratch) reset(S []bgp.IngressID) {
	for _, x := range S {
		gs.inS[x] = false
	}
	for _, i := range gs.touched {
		gs.curE[i], gs.minDist[i], gs.minEst[i] = math.Inf(1), math.Inf(1), math.Inf(1)
		gs.stateVer[i] = 0
		gs.members[i] = gs.members[i][:0]
		clear(gs.mask[i])
	}
	gs.touched = gs.touched[:0]
}

// growUncached is the greedy grow loop behind growPrefix's memo: lazy
// evaluation over the singleton table and the incremental Eq. (2) form.
//
// Frozen floor. State i adds w·(min(bf, curE) − min(bf, newE)) to a
// marginal, bf = bestFrozen[i]. When bf is at or below every mean the
// loop can form for i, both minima are bf, the term is ±0.0 and adding it
// leaves the sum's bits unchanged (a sum from +0.0 is never −0.0), so it
// is skipped before the state is touched:
//   - Initial sweep (S empty, curE +Inf): the probe's mean is x's own
//     estimate, so the test is !(est < bf), exactly.
//   - Stale refresh: every mean for i averages a subset of S's estimates
//     and x's, all ≥ lo, the least non-NaN of them (minEst[i] and x's).
//     Their float sum is ≥ k·lo·(1−2⁻⁵³)^(k−1), so with bf·(1+1e-9) ≤ lo
//     the quotient is ≥ bf for k ≤ 2²⁰ (guarded by the candidate count)
//     and rounding keeps it there. The slack is needed: the mean of equal
//     estimates, as two peerings at one PoP give a UG, can round an ulp
//     below them, and a bare bf ≤ lo would zero that ulp of benefit.
//
// Both tests need a finite bf (Inf − Inf is NaN) and finite weights
// (Inf·0 is NaN); the refresh test also needs bf normal and positive.
// The refresh folds the dark check and the floor into one compare,
// thr[i] ≤ lo: thr[i] is −Inf for a dark state, bf·(1+1e-9) where the
// floor applies and NaN otherwise, and lo is never NaN.
func (o *Orchestrator) growUncached(allPeerings []bgp.IngressID, bestFrozen []float64, dark []bool) []bgp.IngressID {
	if o.params.ExactGreedy {
		return o.growExact(allPeerings, bestFrozen, dark)
	}
	workers := o.workerCount()
	single := o.singletonRows()
	gs := o.warm.takeScratch()
	if gs == nil {
		gs = o.newGrowScratch()
	}
	var S []bgp.IngressID
	curE, stateVer, minEst := gs.curE, gs.stateVer, gs.minEst
	reuse := o.params.ReuseKm
	prune := gs.finiteWeights && len(allPeerings) <= 1<<20
	thr := gs.thr
	for i, bf := range bestFrozen {
		switch {
		case dark != nil && dark[i]:
			thr[i] = math.Inf(-1)
		case prune && bf >= 0x1p-1022 && bf <= math.MaxFloat64:
			thr[i] = bf * (1 + 1e-9)
		default:
			thr[i] = math.NaN()
		}
	}

	// marginalSingle is a candidate's marginal during the initial sweep
	// (S empty, so the probe set is exactly {x}), read from the singleton
	// table. One candidate is evaluated wholly on one worker and the float
	// sum over statesFor(x) runs in fixed index order regardless of how
	// candidates are scheduled, so results are worker-count independent.
	// A peering past the table has no compliant state: its rows are never
	// indexed.
	rowsOf := func(x bgp.IngressID) ([]float64, []int32) {
		if int(x) < len(single.mean) {
			return single.mean[x], single.rank[x]
		}
		return nil, nil
	}
	marginalSingle := func(x bgp.IngressID) float64 {
		means, _ := rowsOf(x)
		var delta float64
		for k, i := range o.statesFor(x) {
			if dark != nil && dark[i] {
				continue
			}
			if bf := bestFrozen[i]; prune && !(means[k] < bf) && math.Abs(bf) <= math.MaxFloat64 {
				continue // frozen floor
			}
			st := o.states[i]
			oldVal := math.Min(bestFrozen[i], curE[i])
			newE := math.Inf(1)
			if v := means[k]; !math.IsNaN(v) {
				newE = v
			}
			newVal := math.Min(bestFrozen[i], newE)
			delta += st.ug.Weight * (oldVal - newVal)
		}
		return delta
	}

	// Incremental Eq. (2): per state, S's compliant members in accept
	// order — exactly the values expectSc reads for that state, in the
	// order it reads them, so means are bit-equal with no per-probe binary
	// searches — and the OR of their preference rows, so the dominance
	// filter is a bit test per member. The singleton table supplies each
	// member's est (a one-peering set's mean IS its est: alone it is never
	// dominated and always within its own reuse radius) and rank.
	//
	// evalInc is Eq. (2)'s mean over state i's members, plus an optional
	// probe member x ordered last, as in the set S+x; xRow is x's own
	// preference row (nil: none). As in expectSc, the reuse radius is
	// measured from the nearest member before dominance drops any.
	evalInc := func(i int32, x incMember, xRow []uint64, probe bool) (float64, bool) {
		members, mask, minDist := gs.members[i], gs.mask[i], gs.minDist[i]
		if probe && x.dist < minDist {
			minDist = x.dist
		}
		var sum float64
		n := 0
		for k := range members {
			m := &members[k]
			if mask != nil && (hasBit(mask, m.rank) || (xRow != nil && hasBit(xRow, m.rank))) {
				continue
			}
			if !math.IsNaN(m.est) && m.dist <= minDist+reuse {
				sum += m.est
				n++
			}
		}
		if probe && !(mask != nil && hasBit(mask, x.rank)) && !math.IsNaN(x.est) && x.dist <= minDist+reuse {
			sum += x.est
			n++
		}
		if n == 0 {
			return 0, false
		}
		return sum / float64(n), true
	}
	marginalInc := func(x bgp.IngressID) float64 {
		means, ranks := rowsOf(x)
		var delta float64
		for k, i := range o.statesFor(x) {
			lo := minEst[i]
			if means[k] < lo {
				lo = means[k]
			}
			if thr[i] <= lo {
				continue // dark, or the frozen floor
			}
			st := o.states[i]
			oldVal := math.Min(bestFrozen[i], curE[i])
			newE := math.Inf(1)
			m := incMember{dist: st.popDist[x], est: means[k], rank: ranks[k]}
			if mean, ok := evalInc(i, m, st.factRow(int(m.rank)), true); ok {
				newE = mean
			}
			newVal := math.Min(bestFrozen[i], newE)
			delta += st.ug.Weight * (oldVal - newVal)
		}
		return delta
	}
	acceptInc := func(x bgp.IngressID) {
		S = append(S, x)
		gs.inS[x] = true
		means, ranks := rowsOf(x)
		for k, i := range o.statesFor(x) {
			st := o.states[i]
			m := incMember{dist: st.popDist[x], est: means[k], rank: ranks[k]}
			if len(gs.members[i]) == 0 {
				gs.touched = append(gs.touched, i)
			}
			gs.members[i] = append(gs.members[i], m)
			if m.dist < gs.minDist[i] {
				gs.minDist[i] = m.dist
			}
			if m.est < minEst[i] {
				minEst[i] = m.est
			}
			for w, b := range st.factRow(int(m.rank)) {
				gs.mask[i][w] |= b
			}
			if mean, ok := evalInc(i, incMember{}, nil, false); ok {
				curE[i] = mean
			} else {
				curE[i] = math.Inf(1)
			}
		}
	}

	// Lazy greedy: cache marginals, re-evaluate only the top candidate.
	// The initial sweep — the bulk of the work — is sharded; results land
	// in candidate order so the heap is built from the same sequence a
	// serial sweep would produce.
	//
	// stateVer tracks the version at which each state's curE last moved.
	// A stale candidate whose compliant states were all untouched since
	// its version would recompute the exact marginal it already carries
	// — its value reads only curE and bestFrozen over statesFor(x) — so
	// it is re-stamped current without re-evaluating.
	version := 0
	margs := append(gs.margs[:0], make([]float64, len(allPeerings))...)
	parallelWorkers(len(allPeerings), workers, func(_, k int) {
		margs[k] = marginalSingle(allPeerings[k])
	})
	h := gs.heap[:0]
	for k, x := range allPeerings {
		h = append(h, candItem{ing: x, marginal: margs[k], version: version})
		if int(x) >= len(gs.inS) { // a candidate no state is indexed under
			gs.inS = append(gs.inS, make([]bool, int(x)+1-len(gs.inS))...)
		}
	}
	gs.margs, gs.heap = margs, h
	heap.Init(&h)
	for h.Len() > 0 {
		if o.params.MaxPeeringsPerPrefix > 0 && len(S) >= o.params.MaxPeeringsPerPrefix {
			break
		}
		top := heap.Pop(&h).(candItem)
		if gs.inS[top.ing] {
			continue
		}
		if top.version != version {
			fresh := true
			for _, i := range o.statesFor(top.ing) {
				if stateVer[i] > top.version {
					fresh = false
					break
				}
			}
			if !fresh {
				// Stale cached marginal: refresh; the heap decides whether
				// it is still the best candidate.
				top.marginal = marginalInc(top.ing)
			}
			top.version = version
			heap.Push(&h, top)
			continue
		}
		if top.marginal <= 0 {
			break
		}
		o.m.acceptedMarginal.Observe(top.marginal)
		acceptInc(top.ing)
		version++
		// Conservative: every state the accept re-evaluated counts as
		// moved (extra recomputes are harmless; missed moves are not).
		for _, i := range o.statesFor(top.ing) {
			stateVer[i] = version
		}
	}
	if len(S) > 0 {
		o.publishStats(S, gs)
	}
	gs.reset(S)
	o.warm.putScratch(gs)
	return S
}

// publishStats caches the grown prefix S's Eq. (2) stats, read off the
// grow scratch before its reset. State i's members are S's peerings
// compliant for it, in S order, and mask[i] is the OR of their rows:
// expectSc's candidates and dominance mask. So the walk below — skip
// masked members and NaN estimates, fold Min and Max over the rest, and
// add to the mean those within ReuseKm of minDist[i], the nearest member
// before dominance — is expectSc's, in its order, and bit-equal. It reads
// st.est, not the member's est: that is the singleton mean, NaN when the
// member fails its own reuse test, yet the estimate still widens Min and
// Max. States without members have no compliant peering in S and stay
// unusable.
func (o *Orchestrator) publishStats(S []bgp.IngressID, gs *growScratch) {
	key := setHash(S)
	if _, ok := o.warm.lookupFreeze(key, S); ok {
		return
	}
	ps := newPrefixStats(len(o.states))
	for _, i := range gs.touched {
		st, mask, lim := o.states[i], gs.mask[i], gs.minDist[i]+o.params.ReuseKm
		lo, hi := math.Inf(1), math.Inf(-1)
		var sum float64
		n := 0
		for _, m := range gs.members[i] {
			if mask != nil && hasBit(mask, m.rank) {
				continue
			}
			ms := st.est[m.rank]
			if math.IsNaN(ms) {
				continue
			}
			if ms < lo {
				lo = ms
			}
			if ms > hi {
				hi = ms
			}
			if m.dist <= lim {
				sum += ms
				n++
			}
		}
		if n > 0 {
			ps.mean[i], ps.min[i], ps.max[i] = sum/float64(n), lo, hi
		}
	}
	o.warm.storeFreeze(key, S, ps)
}

// growExact is growUncached without lazy evaluation (Params.ExactGreedy):
// every remaining candidate's marginal is recomputed from Eq. (2) over
// S+x at every step.
func (o *Orchestrator) growExact(allPeerings []bgp.IngressID, bestFrozen []float64, dark []bool) []bgp.IngressID {
	workers := o.workerCount()
	scs := growScratches(workers)
	defer putScratches(scs)

	var S []bgp.IngressID
	inS := make(map[bgp.IngressID]bool)
	curE := make([]float64, len(o.states))
	for i := range curE {
		curE[i] = math.Inf(1)
	}

	marginalOf := func(sc *exScratch, x bgp.IngressID) float64 {
		sx := append(sc.sx[:0], S...)
		sx = append(sx, x)
		sc.sx = sx
		var delta float64
		for _, i := range o.statesFor(x) {
			if dark != nil && dark[i] {
				continue
			}
			st := o.states[i]
			oldVal := math.Min(bestFrozen[i], curE[i])
			e := st.expectSc(sc, sx, o.params.ReuseKm)
			newE := math.Inf(1)
			if e.Usable() {
				newE = e.Mean
			}
			newVal := math.Min(bestFrozen[i], newE)
			delta += st.ug.Weight * (oldVal - newVal)
		}
		return delta
	}

	accept := func(x bgp.IngressID) {
		S = append(S, x)
		inS[x] = true
		idxs := o.statesFor(x)
		parallelWorkers(len(idxs), workers, func(w, k int) {
			i := idxs[k]
			st := o.states[i]
			if e := st.expectSc(scs[w], S, o.params.ReuseKm); e.Usable() {
				curE[i] = e.Mean
			} else {
				curE[i] = math.Inf(1)
			}
		})
	}

	margs := make([]float64, len(allPeerings))
	for {
		if o.params.MaxPeeringsPerPrefix > 0 && len(S) >= o.params.MaxPeeringsPerPrefix {
			break
		}
		// Recompute every candidate sharded, then argmax sequentially
		// in candidate order (ties keep the first, like a serial scan).
		parallelWorkers(len(allPeerings), workers, func(w, k int) {
			if x := allPeerings[k]; !inS[x] {
				margs[k] = marginalOf(scs[w], x)
			}
		})
		bestX := bgp.InvalidIngress
		bestM := 0.0
		for k, x := range allPeerings {
			if inS[x] {
				continue
			}
			if margs[k] > bestM {
				bestM, bestX = margs[k], x
			}
		}
		if bestX == bgp.InvalidIngress {
			break
		}
		o.m.acceptedMarginal.Observe(bestM)
		accept(bestX)
	}
	return S
}

// --- Prediction, learning, realized benefit --------------------------------

// PredictBenefit evaluates Eq. (1) with Eq. (2) expectations for a
// config, returning (estimated, lower, upper) weighted benefit in ms —
// the uncertainty shading of Fig. 6c.
//
// The bounds reflect what fine-grained steering can do once routes are
// actually tested: in the best case each UG ends up on the best active
// ingress of ANY usable prefix (the Traffic Manager would pick that
// prefix), so the upper bound takes min over prefixes of each prefix's
// optimistic latency; in the worst case the UG lands on the worst
// active ingress of its chosen (best-mean) prefix, floored at anycast.
//
// Each prefix's per-state stats come from the warm cache, where the grow
// loop published them, so predicting a freshly computed config evaluates
// no Eq. (2) at all.
func (o *Orchestrator) PredictBenefit(cfg Config) (mean, lower, upper float64) {
	stats := make([]prefixStats, len(cfg.Prefixes))
	for p, S := range cfg.Prefixes {
		stats[p] = o.statsOf(S)
	}
	for i, st := range o.states {
		valMean, valMin, valMax := st.anycast, st.anycast, st.anycast
		for _, ps := range stats {
			// A usable Min is never NaN: NaN marks an unusable prefix.
			lo := ps.min[i]
			if math.IsNaN(lo) {
				continue
			}
			if lo < valMin {
				valMin = lo
			}
			if ps.mean[i] < valMean {
				valMean = ps.mean[i]
				valMax = math.Min(ps.max[i], st.anycast)
			}
		}
		w := st.ug.Weight
		mean += w * (st.anycast - valMean)
		upper += w * (st.anycast - valMin)
		lower += w * (st.anycast - valMax)
	}
	return mean, lower, upper
}

// Learn ingests observations from an executed configuration, updating
// preference facts and replacing estimates with measured latencies.
// It returns the number of new facts.
func (o *Orchestrator) Learn(cfg Config, obs []Observation) int {
	// Any observation may rewrite estimates or preference facts — the
	// inputs every warm-cache entry was computed under.
	if len(obs) > 0 {
		o.warm.invalidate()
	}
	facts := 0
	for _, ob := range obs {
		si, ok := o.stateIdx[ob.UG]
		if !ok || ob.Prefix < 0 || ob.Prefix >= len(cfg.Prefixes) {
			continue
		}
		st := o.states[si]
		before := len(st.compliant)
		facts += st.learn(cfg.Prefixes[ob.Prefix], ob.Ingress, ob.LatencyMs)
		if len(st.compliant) != before {
			// Compliance model corrected: refresh the inverted index.
			o.indexState(ob.Ingress, si)
		}
	}
	return facts
}

// RealizedBenefit evaluates Eq. (1) using observed latencies: each UG's
// achieved latency is the minimum over anycast and its observed prefix
// latencies (the Traffic Manager steers per-flow to the best prefix).
func (o *Orchestrator) RealizedBenefit(obs []Observation) float64 {
	best := make([]float64, len(o.states))
	for i, st := range o.states {
		best[i] = st.anycast
	}
	for _, ob := range obs {
		if si, ok := o.stateIdx[ob.UG]; ok && ob.LatencyMs < best[si] {
			best[si] = ob.LatencyMs
		}
	}
	var total float64
	for i, st := range o.states {
		total += st.ug.Weight * (st.anycast - best[i])
	}
	return total
}
