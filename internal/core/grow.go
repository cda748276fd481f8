package core

import (
	"container/heap"
	"math"

	"painter/internal/bgp"
)

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

// growUncached is the grow loop behind growPrefix's memo. It is lazy
// greedy (Minoux 1978): the sweep puts every candidate's marginal over
// the empty prefix in a max-heap; a popped entry that went stale at an
// accept is refreshed and pushed back, and a fresh top is accepted while
// its marginal is positive. Lazy evaluation returns the greedy argmax
// only for a submodular objective, and Eq. (2) is not one: D_reuse is
// measured from the nearest member, and a new member's preference row
// can drop other members. A stale value is therefore not an upper bound
// on the current marginal, and an accept need not be the argmax.
//
// Params.ExactGreedy runs the same loop, but after each accept it
// refreshes every moved entry and rebuilds the heap (refreshAll), so each
// accept is the argmax of the current marginals, ties to the lowest ID.
//
// A stale entry whose compliant states were all untouched since its
// version would recompute the exact marginal it already carries — the
// marginal reads only statesFor(x)'s members, curE and bestFrozen, and
// an accept stamps every state whose members it changes — so it is
// re-stamped current without re-evaluating (moved).
//
// Frozen floor. State i adds w·(min(bf, curE) − min(bf, newE)) to a
// marginal, bf = bestFrozen[i]. When bf is at or below every mean the
// loop can form for i, both minima are bf, the term is ±0.0 and adding it
// leaves the sum's bits unchanged (a sum from +0.0 is never −0.0), so
// refresh skips it before the state is touched. Every mean for i averages
// a subset of S's estimates and x's, all ≥ lo, the least non-NaN of them
// (minEst[i] and x's; +Inf when there is none). Their float sum is
// ≥ k·lo·(1−2⁻⁵³)^(k−1), so with bf·(1+1e-9) ≤ lo the quotient is ≥ bf
// for k ≤ 2²⁰ (guarded by the candidate count) and rounding keeps it
// there. The slack is needed: the mean of equal estimates, as two
// peerings at one PoP give a UG, can round an ulp below them, and a bare
// bf ≤ lo would zero that ulp of benefit. In the sweep S is empty, so
// minEst[i] is +Inf and lo is x's own estimate: the sweep and the stale
// refresh share the one test.
//
// The test needs bf finite (Inf − Inf is NaN), normal and positive, and
// finite weights (Inf·0 is NaN). It folds the dark check and the floor
// into one compare, thr[i] ≤ lo: thr[i] is −Inf for a dark state,
// bf·(1+1e-9) where the floor applies and NaN otherwise, and lo is never
// NaN.
func (o *Orchestrator) growUncached(allPeerings []bgp.IngressID, bestFrozen []float64, dark []bool) []bgp.IngressID {
	gs := o.warm.takeScratch()
	if gs == nil {
		gs = o.newGrowScratch()
	}
	workers := o.workerCount()
	gs.begin(o.singletonRows(), bestFrozen, dark, len(allPeerings))
	gs.sweep(allPeerings, workers)
	h := &gs.heap
	for h.Len() > 0 {
		if o.params.MaxPeeringsPerPrefix > 0 && len(gs.S) >= o.params.MaxPeeringsPerPrefix {
			break
		}
		top := heap.Pop(h).(candItem)
		if gs.inS[top.ing] {
			continue
		}
		if top.version != gs.version {
			// Stale cached marginal: refresh; the heap decides whether it
			// is still the best candidate.
			if gs.moved(top.ing, top.version) {
				top.marginal = gs.refresh(top.ing)
			}
			top.version = gs.version
			heap.Push(h, top)
			continue
		}
		if top.marginal <= 0 {
			break
		}
		o.m.acceptedMarginal.Observe(top.marginal)
		gs.accept(top.ing)
		if o.params.ExactGreedy {
			gs.refreshAll(workers)
		}
	}
	S := gs.S
	if len(S) > 0 {
		gs.publish()
	}
	gs.reset()
	o.warm.putScratch(gs)
	return S
}

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

// incMember is one accepted peering as one state sees it: the values
// expectSc would read for it, plus its rank for the dominance test.
type incMember struct {
	dist, est float64
	rank      int32
}

// growScratch is the grow loop's state: one grow's inputs and working
// memory, sized to the model once and reset per grow (warmCache keeps
// the returned scratch until the next Learn). Between grows everything
// but thr is at its initial value: no inputs, S empty, version 0, curE
// and minDist +Inf, stateVer 0, members empty, masks zero, inS false.
//
// Incremental Eq. (2): per state, S's compliant members in accept order
// — exactly the values expectSc reads for that state, in the order it
// reads them, so means are bit-equal with no per-probe binary searches —
// and the OR of their preference rows, so the dominance filter is a bit
// test per member. The singleton table supplies each member's est (a
// one-peering set's mean IS its est: alone it is never dominated and
// always within its own reuse radius) and rank.
type growScratch struct {
	o *Orchestrator
	// single and bestFrozen are the grow's inputs (begin): the singleton
	// table and the frozen base.
	single     *singleTable
	bestFrozen []float64
	// S is the growing prefix, in accept order; inS[ing] marks its
	// peerings.
	S   []bgp.IngressID
	inS []bool
	// version counts accepts; stateVer[i] is the version at which curE[i]
	// last moved.
	version  int
	stateVer []int
	// curE[i] is Eq. (2) for the growing prefix, +Inf when unusable.
	curE []float64
	// members[i] lists the growing prefix's peerings compliant for state
	// i, in accept order; minDist[i] is the distance to the nearest of
	// them, and mask[i] the OR of their preference rows (nil for a state
	// without learned facts, whose rows would all be empty).
	members [][]incMember
	minDist []float64
	mask    [][]uint64
	// minEst[i] is the least non-NaN est among state i's members.
	minEst []float64
	// thr[i] is the frozen-floor skip threshold for state i (begin).
	thr []float64
	// finiteWeights holds when every state's weight is finite, the frozen
	// floor's precondition.
	finiteWeights bool
	// touched lists the states with members, for the reset.
	touched []int32
	heap    candHeap
}

func (o *Orchestrator) newGrowScratch() *growScratch {
	n := len(o.states)
	gs := &growScratch{
		o:             o,
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

// begin loads one grow's inputs and fills thr (see growUncached's
// frozen floor); nCands is the candidate count, which bounds |S|.
func (gs *growScratch) begin(single *singleTable, bestFrozen []float64, dark []bool, nCands int) {
	gs.single, gs.bestFrozen = single, bestFrozen
	prune := gs.finiteWeights && nCands <= 1<<20
	for i, bf := range bestFrozen {
		switch {
		case dark != nil && dark[i]:
			gs.thr[i] = math.Inf(-1)
		case prune && bf >= 0x1p-1022 && bf <= math.MaxFloat64:
			gs.thr[i] = bf * (1 + 1e-9)
		default:
			gs.thr[i] = math.NaN()
		}
	}
}

// rows returns x's singleton means and ranks, aligned with statesFor(x).
// A peering past the table has no compliant state: its rows are never
// indexed.
func (gs *growScratch) rows(x bgp.IngressID) ([]float64, []int32) {
	if int(x) < len(gs.single.mean) {
		return gs.single.mean[x], gs.single.rank[x]
	}
	return nil, nil
}

// sweep fills the heap with every candidate's marginal over the empty
// prefix, at version 0. It is sharded; a marginal is computed wholly by
// one worker into its candidate's slot, so the heap is built from the
// sequence a serial sweep would produce.
func (gs *growScratch) sweep(cands []bgp.IngressID, workers int) {
	h := gs.heap[:0]
	for _, x := range cands {
		h = append(h, candItem{ing: x})
		if int(x) >= len(gs.inS) { // a candidate no state is indexed under
			gs.inS = append(gs.inS, make([]bool, int(x)+1-len(gs.inS))...)
		}
	}
	parallelWorkers(len(h), workers, func(_, k int) {
		h[k].marginal = gs.refresh(h[k].ing)
	})
	gs.heap = h
	heap.Init(&gs.heap)
}

// eval is Eq. (2)'s mean over state i's members, plus an optional probe
// member x ordered last, as in the set S+x; xRow is x's own preference
// row (nil: none). As in expectSc, the reuse radius is measured from the
// nearest member before dominance drops any.
func (gs *growScratch) eval(i int32, x incMember, xRow []uint64, probe bool) (float64, bool) {
	members, mask, minDist := gs.members[i], gs.mask[i], gs.minDist[i]
	reuse := gs.o.params.ReuseKm
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

// refresh is x's marginal benefit over the current prefix: the weighted
// drop, over x's non-dark states, of min(bestFrozen, curE) when x joins.
// The float sum runs over statesFor(x) in fixed index order, so it does
// not depend on which worker computes it. Safe for concurrent calls
// between accepts.
func (gs *growScratch) refresh(x bgp.IngressID) float64 {
	states, bestFrozen, curE, minEst, thr := gs.o.states, gs.bestFrozen, gs.curE, gs.minEst, gs.thr
	means, ranks := gs.rows(x)
	var delta float64
	for k, i := range gs.o.statesFor(x) {
		lo := minEst[i]
		if means[k] < lo {
			lo = means[k]
		}
		if thr[i] <= lo {
			continue // dark, or the frozen floor
		}
		st := states[i]
		oldVal := math.Min(bestFrozen[i], curE[i])
		newE := math.Inf(1)
		m := incMember{dist: st.popDist[x], est: means[k], rank: ranks[k]}
		if mean, ok := gs.eval(i, m, st.factRow(int(m.rank)), true); ok {
			newE = mean
		}
		newVal := math.Min(bestFrozen[i], newE)
		delta += st.ug.Weight * (oldVal - newVal)
	}
	return delta
}

// moved reports whether any of x's states moved after version v; if
// none did, x's marginal at v is still current.
func (gs *growScratch) moved(x bgp.IngressID, v int) bool {
	for _, i := range gs.o.statesFor(x) {
		if gs.stateVer[i] > v {
			return true
		}
	}
	return false
}

// accept adds x to the prefix and advances the version. Conservatively,
// every state the accept re-evaluates counts as moved (extra refreshes
// are harmless; missed moves are not).
func (gs *growScratch) accept(x bgp.IngressID) {
	gs.S = append(gs.S, x)
	gs.inS[x] = true
	gs.version++
	means, ranks := gs.rows(x)
	for k, i := range gs.o.statesFor(x) {
		st := gs.o.states[i]
		m := incMember{dist: st.popDist[x], est: means[k], rank: ranks[k]}
		if len(gs.members[i]) == 0 {
			gs.touched = append(gs.touched, i)
		}
		gs.members[i] = append(gs.members[i], m)
		if m.dist < gs.minDist[i] {
			gs.minDist[i] = m.dist
		}
		if m.est < gs.minEst[i] {
			gs.minEst[i] = m.est
		}
		for w, b := range st.factRow(int(m.rank)) {
			gs.mask[i][w] |= b
		}
		if mean, ok := gs.eval(i, incMember{}, nil, false); ok {
			gs.curE[i] = mean
		} else {
			gs.curE[i] = math.Inf(1)
		}
		gs.stateVer[i] = gs.version
	}
}

// refreshAll is exact greedy's step (Params.ExactGreedy): after an
// accept, every heap entry whose states moved is refreshed, sharded, all
// are stamped current, and the heap is rebuilt, so the next pop is the
// argmax of the current marginals.
func (gs *growScratch) refreshAll(workers int) {
	h := gs.heap
	parallelWorkers(len(h), workers, func(_, k int) {
		if gs.moved(h[k].ing, h[k].version) {
			h[k].marginal = gs.refresh(h[k].ing)
		}
		h[k].version = gs.version
	})
	heap.Init(&gs.heap)
}

// publish caches the grown prefix's Eq. (2) stats, read off the scratch
// before its reset. State i's members are S's peerings compliant for it,
// in S order, and mask[i] is the OR of their rows: expectSc's candidates
// and dominance mask. So the walk below — skip masked members and NaN
// estimates, fold Min and Max over the rest, and add to the mean those
// within ReuseKm of minDist[i], the nearest member before dominance — is
// expectSc's, in its order, and bit-equal. It reads st.est, not the
// member's est: that is the singleton mean, NaN when the member fails its
// own reuse test, yet the estimate still widens Min and Max. States
// without members have no compliant peering in S and stay unusable.
func (gs *growScratch) publish() {
	o, S := gs.o, gs.S
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

// reset undoes one grow. S itself is the caller's: the next grow starts
// a new slice.
func (gs *growScratch) reset() {
	for _, x := range gs.S {
		gs.inS[x] = false
	}
	for _, i := range gs.touched {
		gs.curE[i], gs.minDist[i], gs.minEst[i] = math.Inf(1), math.Inf(1), math.Inf(1)
		gs.stateVer[i] = 0
		gs.members[i] = gs.members[i][:0]
		clear(gs.mask[i])
	}
	gs.touched = gs.touched[:0]
	gs.single, gs.bestFrozen, gs.S, gs.version = nil, nil, nil, 0
}
