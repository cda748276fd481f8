package core

import (
	"container/heap"
	"math"
	"math/bits"

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
// greedy (Minoux 1978): the serial sweep puts every candidate's marginal
// over the empty prefix in a max-heap; a popped entry that went stale at an
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
// the marginal skips it before the state is touched. Every mean for i
// averages a subset of S's estimates and x's, all ≥ lo, the least non-NaN
// of them (minEst[i] and x's; +Inf when there is none). Their float sum is
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
//
// Live index. The floor is an index, not a test run on every term:
// live[x] is a bitset over the positions of statesFor(x) that holds at
// least every term the test keeps. A marginal walks only its set bits, in
// statesFor order, so it adds exactly the terms a full scan would, in the
// same order, and is bit-equal. The sweep tests each set bit and clears
// those it skips. With S empty that test reads only thr[i] and x's
// singleton mean, so a cleared bit can turn live again in two ways only:
//   - Within a grow, minEst[i] falls below thr[i]. accept then marks state
//     i hot (heat): through the singleton table's pos it sets state i's
//     bit in every candidate compliant for it where the bit is 0, and
//     logs each bit it set. reset clears exactly the logged bits, so every
//     bitset is back to what it was before the grow's accepts: a swept
//     bitset holds exactly the terms its sweep kept.
//   - Across grows, thr[i] rises. begin then bumps the generation, and a
//     bitset stamped with an older one is reset to all ones when next
//     swept. A NaN thr clears nothing, so a rise from NaN does not count
//     and a change to NaN does.
//
// The stale refresh and exact mode's refreshAll only read the bitsets.
//
// Running sums. Each state keeps eval's member sum and count (sum[i],
// cnt[i]) for the current prefix, and the ranks of its members as a
// bitset. A probe x that is not nearer than minDist[i], and whose
// preference row holds none of those ranks, leaves eval's member loop
// exactly as it is: the same members pass the same tests and are added
// in the same order, and x is added last. So probe adds x's term to the
// running sum in O(1), bit-equal to eval. A nearer x can pull members
// out of the reuse radius, and a row that holds a member's rank can drop
// that member, so in those cases probe calls eval. accept takes the new
// sum from probe before it adds x to the members: eval's S+x is the
// prefix after the accept.
func (o *Orchestrator) growUncached(allPeerings []bgp.IngressID, bestFrozen []float64, dark []bool) []bgp.IngressID {
	gs := o.warm.takeScratch()
	if gs == nil {
		gs = o.newGrowScratch()
	}
	gs.begin(o.singletonRows(), bestFrozen, dark, len(allPeerings))
	gs.sweep(allPeerings)
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
				top.marginal = gs.marginal(top.ing, false)
			}
			top.version = gs.version
			heap.Push(h, top)
			continue
		}
		if top.marginal <= 0 {
			break
		}
		gs.accept(top.ing)
		if o.params.ExactGreedy {
			gs.refreshAll(o.workerCount())
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
// but thr and the live index is at its initial value: no inputs, S
// empty, version 0, curE and minDist +Inf, sum and cnt 0, stateVer 0,
// members empty, masks and member ranks zero, inS false, no heated bits.
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
	// sum[i] and cnt[i] are eval's member sum and count for state i
	// without a probe; ranks[i] holds its members' ranks as a bitset (nil
	// where mask[i] is). See growUncached's running sums.
	sum   []float64
	cnt   []int
	ranks [][]uint64
	// minEst[i] is the least non-NaN est among state i's members.
	minEst []float64
	// thr[i] is the frozen-floor skip threshold for state i (begin).
	thr []float64
	// live[x] is candidate x's live bitset over the positions of
	// statesFor(x), valid while liveGen[x] is gen (see growUncached's live
	// index).
	live    [][]uint64
	liveGen []uint64
	gen     uint64
	// finiteWeights holds when every state's weight is finite, the frozen
	// floor's precondition.
	finiteWeights bool
	// touched lists the states with members, and heated the live bits
	// heat set, for the reset.
	touched []int32
	heated  []heatBit
	heap    candHeap
}

// heatBit is one live bit heat set: position p of candidate x's bitset.
type heatBit struct {
	x bgp.IngressID
	p int32
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
		sum:           make([]float64, n),
		cnt:           make([]int, n),
		ranks:         make([][]uint64, n),
		minEst:        make([]float64, n),
		thr:           make([]float64, n),
		live:          make([][]uint64, len(o.byIngress)),
		liveGen:       make([]uint64, len(o.byIngress)),
		gen:           1, // every bitset starts stale
		finiteWeights: true,
	}
	liveWords := 0
	for _, idxs := range o.byIngress {
		liveWords += (len(idxs) + 63) / 64
	}
	live := make([]uint64, liveWords)
	for x, idxs := range o.byIngress {
		w := (len(idxs) + 63) / 64
		gs.live[x], live = live[:w:w], live[w:]
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
	slab := make([]uint64, 2*words)
	for i, st := range o.states {
		if len(st.rows) > 0 {
			gs.mask[i], slab = slab[:st.words:st.words], slab[st.words:]
			gs.ranks[i], slab = slab[:st.words:st.words], slab[st.words:]
		}
	}
	return gs
}

// begin loads one grow's inputs, fills thr (see growUncached's frozen
// floor) and bumps the live index's generation if any thr rose; nCands is
// the candidate count, which bounds |S|.
func (gs *growScratch) begin(single *singleTable, bestFrozen []float64, dark []bool, nCands int) {
	gs.single, gs.bestFrozen = single, bestFrozen
	prune := gs.finiteWeights && nCands <= 1<<20
	rose := false
	for i, bf := range bestFrozen {
		t := math.NaN()
		switch {
		case dark != nil && dark[i]:
			t = math.Inf(-1)
		case prune && bf >= 0x1p-1022 && bf <= math.MaxFloat64:
			t = bf * (1 + 1e-9)
		}
		if old := gs.thr[i]; !math.IsNaN(old) && !(t <= old) {
			rose = true
		}
		gs.thr[i] = t
	}
	if rose {
		gs.gen++
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
// prefix, at version 0, resetting each stale live bitset to all ones and
// clearing every bit the frozen floor skips.
func (gs *growScratch) sweep(cands []bgp.IngressID) {
	h := gs.heap[:0]
	for _, x := range cands {
		if int(x) >= len(gs.inS) { // a candidate no state is indexed under
			gs.inS = append(gs.inS, make([]bool, int(x)+1-len(gs.inS))...)
		}
		if int(x) < len(gs.live) && gs.liveGen[x] != gs.gen {
			live := gs.live[x]
			for w := range live {
				live[w] = math.MaxUint64
			}
			if tail := len(gs.o.statesFor(x)) % 64; tail != 0 {
				live[len(live)-1] = 1<<tail - 1
			}
			gs.liveGen[x] = gs.gen
		}
		h = append(h, candItem{ing: x, marginal: gs.marginal(x, true)})
	}
	gs.heap = h
	heap.Init(&gs.heap)
}

// eval is Eq. (2)'s sum and count over state i's members, plus an
// optional probe member x ordered last, as in the set S+x; xRow is x's
// own preference row (nil: none). As in expectSc, the reuse radius is
// measured from the nearest member before dominance drops any. The mean
// is sum/n; with n 0 the set is unusable for i.
func (gs *growScratch) eval(i int32, x incMember, xRow []uint64, probe bool) (float64, int) {
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
	if probe {
		return gs.withProbe(i, x, minDist, sum, n)
	}
	return sum, n
}

// withProbe adds probe x's term to a member sum and count, as eval does
// last: unless a member dominates x, its estimate is NaN, or it lies
// outside the reuse radius around minDist.
func (gs *growScratch) withProbe(i int32, x incMember, minDist, sum float64, n int) (float64, int) {
	if mask := gs.mask[i]; !(mask != nil && hasBit(mask, x.rank)) && !math.IsNaN(x.est) && x.dist <= minDist+gs.o.params.ReuseKm {
		return sum + x.est, n + 1
	}
	return sum, n
}

// probe is eval(i, x, xRow, true), from the running sum when x is not
// nearer than minDist[i] and xRow holds no member's rank, else by eval
// (see growUncached's running sums).
func (gs *growScratch) probe(i int32, x incMember, xRow []uint64) (float64, int) {
	if x.dist < gs.minDist[i] || (xRow != nil && gs.mask[i] != nil && intersects(xRow, gs.ranks[i])) {
		return gs.eval(i, x, xRow, true)
	}
	return gs.withProbe(i, x, gs.minDist[i], gs.sum[i], gs.cnt[i])
}

// intersects reports whether two equal-length bitsets share a bit.
func intersects(a, b []uint64) bool {
	for w, word := range a {
		if word&b[w] != 0 {
			return true
		}
	}
	return false
}

// marginal is x's marginal benefit over the current prefix: the weighted
// drop, over x's non-dark states, of min(bestFrozen, curE) when x joins.
// It walks x's live bits, so the float sum runs over statesFor(x) in
// fixed index order and does not depend on which worker computes it.
// With filter set (the sweep) it clears each bit the frozen floor skips;
// without, it writes nothing and is safe for concurrent calls between
// accepts.
func (gs *growScratch) marginal(x bgp.IngressID, filter bool) float64 {
	if int(x) >= len(gs.live) {
		return 0 // no compliant state
	}
	states, bestFrozen, curE, minEst, thr := gs.o.states, gs.bestFrozen, gs.curE, gs.minEst, gs.thr
	idxs, live := gs.o.statesFor(x), gs.live[x]
	means, ranks := gs.rows(x)
	var delta float64
	for w, word := range live {
		keep := word
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			k := w<<6 | b
			i := idxs[k]
			lo := minEst[i]
			if means[k] < lo {
				lo = means[k]
			}
			if thr[i] <= lo {
				keep &^= 1 << b // dark, or the frozen floor
				continue
			}
			st := states[i]
			oldVal := math.Min(bestFrozen[i], curE[i])
			newE := math.Inf(1)
			m := incMember{dist: st.popDist[x], est: means[k], rank: ranks[k]}
			if sum, n := gs.probe(i, m, st.factRow(int(m.rank))); n > 0 {
				newE = sum / float64(n)
			}
			newVal := math.Min(bestFrozen[i], newE)
			delta += st.ug.Weight * (oldVal - newVal)
		}
		if filter {
			live[w] = keep
		}
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
// are harmless; missed moves are not). A state whose minEst first falls
// below its thr turns hot (heat).
func (gs *growScratch) accept(x bgp.IngressID) {
	gs.S = append(gs.S, x)
	gs.inS[x] = true
	gs.version++
	means, ranks := gs.rows(x)
	for k, i := range gs.o.statesFor(x) {
		st := gs.o.states[i]
		m := incMember{dist: st.popDist[x], est: means[k], rank: ranks[k]}
		row := st.factRow(int(m.rank))
		sum, n := gs.probe(i, m, row)
		gs.sum[i], gs.cnt[i] = sum, n
		if n > 0 {
			gs.curE[i] = sum / float64(n)
		} else {
			gs.curE[i] = math.Inf(1)
		}
		if len(gs.members[i]) == 0 {
			gs.touched = append(gs.touched, i)
		}
		gs.members[i] = append(gs.members[i], m)
		if m.dist < gs.minDist[i] {
			gs.minDist[i] = m.dist
		}
		if m.est < gs.minEst[i] {
			if m.est < gs.thr[i] && gs.minEst[i] >= gs.thr[i] {
				gs.heat(i)
			}
			gs.minEst[i] = m.est
		}
		if mask := gs.mask[i]; mask != nil {
			for w, b := range row {
				mask[w] |= b
			}
			setBit(gs.ranks[i], int(m.rank))
		}
		gs.stateVer[i] = gs.version
	}
}

// heat sets state i's bit in the live set of every candidate compliant
// for it where the bit is 0 — every bit of i's the sweep can have
// cleared — and logs each bit it sets, for reset to clear. accept calls
// it when i turns hot, as its minEst falls below thr[i].
func (gs *growScratch) heat(i int32) {
	st := gs.o.states[i]
	for r, p := range gs.single.pos[i] {
		if p < 0 {
			continue
		}
		x := st.compliant[r]
		if live := gs.live[x]; !hasBit(live, p) {
			setBit(live, int(p))
			gs.heated = append(gs.heated, heatBit{x, p})
		}
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
			h[k].marginal = gs.marginal(h[k].ing, false)
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
	for _, b := range gs.heated {
		gs.live[b.x][b.p>>6] &^= 1 << (b.p & 63)
	}
	gs.heated = gs.heated[:0]
	for _, i := range gs.touched {
		gs.curE[i], gs.minDist[i], gs.minEst[i] = math.Inf(1), math.Inf(1), math.Inf(1)
		gs.sum[i], gs.cnt[i], gs.stateVer[i] = 0, 0, 0
		gs.members[i] = gs.members[i][:0]
		clear(gs.mask[i])
		clear(gs.ranks[i])
	}
	gs.touched = gs.touched[:0]
	gs.single, gs.bestFrozen, gs.S, gs.version = nil, nil, nil, 0
}
