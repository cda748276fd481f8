package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// ExactGreedy makes the grow loop refresh every moved candidate and
	// rebuild its heap after each accept, so each accept is the argmax of
	// the current marginals. Off, it is lazy greedy, which refreshes only
	// stale heap tops: over a non-submodular Eq. (2), a different
	// heuristic. Slower; the ablation figure compares the two.
	ExactGreedy bool
	// MaxPeeringsPerPrefix caps reuse breadth per prefix (0 = no cap).
	MaxPeeringsPerPrefix int
	// Workers is the worker count for the sharded loops: ExactGreedy's
	// refresh of every moved candidate after an accept, and the Eq. (2)
	// stats of a prefix set the grow loop did not publish (0 =
	// GOMAXPROCS, 1 = fully sequential). The grow loop's initial sweep is
	// serial. Any value produces byte-identical configurations: each
	// per-candidate marginal and per-state stat is computed wholly by one
	// worker over a fixed order, so float summation order never depends
	// on scheduling.
	Workers int
	// Obs, when non-nil, receives solve-loop metrics (iterations,
	// prefixes placed, facts learned, realized benefit, wall times). Nil
	// disables instrumentation at one-branch cost.
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
	// (growUncached), kept as one live bitset per candidate over the
	// positions of its row, so a marginal visits only the UGs the
	// candidate may still improve on. Indexed by raw IngressID; rows are
	// grown on demand when learning corrects the compliance model.
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
		rep.RealizedBenefit = o.RealizedBenefit(obs)
		rep.FactsLearned = o.Learn(cfg, obs)
		o.m.iterations.Inc()
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
// (publish); any other set is evaluated here, once.
func (o *Orchestrator) statsOf(S []bgp.IngressID) prefixStats {
	key := setHash(S)
	if ps, ok := o.warm.lookupFreeze(key, S); ok {
		return ps
	}
	ps := newPrefixStats(len(o.states))
	scs := make([]exScratch, o.workerCount())
	parallelWorkers(len(o.states), len(scs), func(w, i int) {
		if e := o.states[i].expectSc(&scs[w], S, o.params.ReuseKm); e.usable() {
			ps.mean[i], ps.min[i], ps.max[i] = e.Mean, e.Min, e.Max
		}
	})
	o.warm.storeFreeze(key, S, ps)
	return ps
}

// singleTable is the per-ingress view of the model the grow loop reads:
// for state statesFor(ing)[k], mean[ing][k] is Eq. (2)'s mean under the
// one-peering set {ing} (NaN when unusable) and rank[ing][k] is ing's
// rank in that state's compliant set. pos is the inverse, per state:
// pos[i][r] is state i's position in statesFor(compliant[r]), −1 where
// that peering has no row.
type singleTable struct {
	mean [][]float64
	rank [][]int32
	pos  [][]int32
}

// singletonRows returns (building on first use per model version) the
// singleton table. growPrefix's initial sweep — the bulk of a grow —
// probes exactly the singleton means, so the table turns it into a table
// walk; the ranks spare every later probe its binary search, and pos
// lets an accept reach a state's bit in every candidate's live set.
func (o *Orchestrator) singletonRows() *singleTable {
	if t := o.warm.lookupSingle(); t != nil {
		return t
	}
	// Only deployment peerings get rows: they are the only grow
	// candidates, and popDist is only defined for deployment IDs (learned
	// compliance corrections can index states under foreign ingress IDs).
	t := &singleTable{mean: make([][]float64, len(o.byIngress)), rank: make([][]int32, len(o.byIngress)),
		pos: make([][]int32, len(o.states))}
	n := 0
	for _, st := range o.states {
		n += len(st.compliant)
	}
	slab := make([]int32, n)
	for i, st := range o.states {
		t.pos[i], slab = slab[:len(st.compliant):len(st.compliant)], slab[len(st.compliant):]
		for r := range t.pos[i] {
			t.pos[i][r] = -1
		}
	}
	// The peerings come in ascending ID order, so a state's ranks of them
	// ascend too: next[i] is the rank to try first for state i, and
	// reaching a peering's rank walks past only the compliant IDs below
	// it, with no binary search.
	next := make([]int32, len(o.states))
	reuse := o.params.ReuseKm
	for _, ing := range o.in.Deploy.AllPeeringIDs() {
		idxs := o.statesFor(ing)
		if len(idxs) == 0 {
			continue
		}
		mean, rank := make([]float64, len(idxs)), make([]int32, len(idxs))
		for k, i := range idxs {
			st := o.states[i]
			r := int(next[i])
			for st.compliant[r] < ing {
				r++
			}
			next[i] = int32(r)
			rank[k], t.pos[i][r] = int32(r), int32(k)
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
// It returns the number of new facts. An observation of an unknown UG,
// of a prefix outside cfg, or with a negative ingress (an Executor
// reporting no route, bgp.InvalidIngress) teaches nothing and is skipped.
//
// An observation changes only its own state, so Learn is state-major:
// it buckets the observations by state, in observation order, and shards
// the states on the worker pool. Each worker loads a state's ranks into
// its own rankTable once for all of the state's observations. A
// compliance correction also appends the state to the ingress's
// byIngress row; those appends are replayed after the shards, in
// observation order, so every row reads as a serial pass left it.
func (o *Orchestrator) Learn(cfg Config, obs []Observation) int {
	// Any observation may rewrite estimates or preference facts — the
	// inputs every warm-cache entry was computed under.
	if len(obs) > 0 {
		o.warm.invalidate()
	}
	// stateOf[k] is observation k's state, −1 when it is not learned
	// from; state i's observations are order[start[i]:start[i+1]].
	stateOf := make([]int32, len(obs))
	start := make([]int32, len(o.states)+1)
	for k, ob := range obs {
		si, ok := o.stateIdx[ob.UG]
		if !ok || ob.Prefix < 0 || ob.Prefix >= len(cfg.Prefixes) || ob.Ingress < 0 {
			stateOf[k] = -1
			continue
		}
		stateOf[k] = si
		start[si+1]++
	}
	var active []int32
	for i := range o.states {
		if start[i+1] > 0 {
			active = append(active, int32(i))
		}
		start[i+1] += start[i]
	}
	order := make([]int32, start[len(o.states)])
	next := slices.Clone(start[:len(o.states)])
	for k, si := range stateOf {
		if si >= 0 {
			order[next[si]] = int32(k)
			next[si]++
		}
	}
	grew := make([]bool, len(obs))
	workers := o.workerCount()
	facts := make([]int, workers)
	tables := make([]rankTable, workers)
	parallelWorkers(len(active), workers, func(w, a int) {
		si := active[a]
		st, t := o.states[si], &tables[w]
		t.load(st)
		n := 0
		for _, k := range order[start[si]:start[si+1]] {
			ob := &obs[k]
			before := len(st.compliant)
			n += st.learn(t, cfg.Prefixes[ob.Prefix], ob.Ingress, ob.LatencyMs)
			grew[k] = len(st.compliant) != before
		}
		t.unload(st)
		facts[w] += n
	})
	for k, g := range grew {
		if g {
			// Compliance model corrected: refresh the inverted index.
			o.indexState(obs[k].Ingress, stateOf[k])
		}
	}
	total := 0
	for _, n := range facts {
		total += n
	}
	return total
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
