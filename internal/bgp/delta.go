package bgp

// Incremental delta propagation: repair a previous propagation Result
// after a small input change instead of re-running the whole-graph
// engine. Most netsim events (one peering down, one preference flip)
// perturb only the catchment cone of the change — usually a tiny
// fraction of the AS graph — so re-deriving just that cone is the big
// win the continuous controller compounds with prefix-level repair.
//
// The full engine settles ASes in a fixed global order: phase-major
// (customer < peer < provider), path-length-minor, realized by three
// sequential bucket-queue sweeps. Crucially, the tied candidate set an
// AS sees at its settle bucket depends only on ASes settled at strictly
// smaller (phase, length) keys — the dependency order is acyclic. The
// delta engine exploits that:
//
//   - Every (class, pathLen, AS) bucket maps to one uint64 key ordered
//     exactly like the full engine's evaluation order (deltaKey).
//   - The change seeds a min-heap frontier: buckets of injections that
//     differ from prev's (per-neighbor multiset diff), plus the settle
//     buckets of ASes whose tie-break preferences flipped.
//   - Popping a key re-derives that AS's tied candidate set AT that
//     bucket from current neighbor state (candidatesAt reconstructs
//     precisely the set the full engine's settleBucket would present,
//     in the same (ingress, via) order), and compares against the
//     previous settle:
//       * unchanged winner — dependents unaffected, no pushes;
//       * changed/withdrawn — the AS's old and new export buckets are
//         pushed so dependents re-evaluate, and a withdrawn AS
//         reschedules itself at the next bucket it could settle in.
//   - ASes never reached by a push keep their previous route verbatim.
//
// Exactness argument (pinned by the differential suite): when key k
// pops, every AS's settled-below-k state is final — changed
// contributors push their old and new export buckets (both > their own
// settle key), so any bucket whose candidate set differs from prev's is
// in the heap before it is reached, and an unchanged candidate set
// at an AS's previous settle bucket implies (inductively) the previous
// selection stands. Because candidatesAt rebuilds the full tied set,
// the TieBreaker sees byte-identical inputs to the full engine's — the
// equivalence holds for arbitrary tie-breakers, not just default ones.

import (
	"fmt"
	"slices"

	"painter/internal/topology"
)

// Delta settle status per AS.
const (
	dsFinal     uint8 = iota // previous settle presumed to stand
	dsInvalid                // previous settle revoked; searching for a new bucket
	dsResettled              // settled under the new inputs; final
)

// deltaInf is the bucket key of an unsettled AS: after every real key.
const deltaInf = ^uint64(0)

// deltaKey packs (class, pathLen, denseID) into one key ordered
// phase-major, length-minor, exactly the full engine's settle order:
// class<<62 | pathLen<<31 | id. Path lengths and dense ids both fit 31
// bits (paths are bounded by the AS count plus max prepend).
func deltaKey(class RouteClass, pathLen int, as int32) uint64 {
	return uint64(class)<<62 | uint64(uint32(pathLen))<<31 | uint64(uint32(as))
}

func deltaKeyParts(k uint64) (class RouteClass, pathLen int, as int32) {
	return RouteClass(k >> 62), int(k >> 31 & 0x7fffffff), int32(k & 0x7fffffff)
}

// deltaHeap is a plain binary min-heap of bucket keys. Duplicates are
// tolerated (pops drain them) — cheaper than an indexed heap at the
// frontier sizes delta repair sees.
type deltaHeap []uint64

func (h *deltaHeap) push(k uint64) {
	s := append(*h, k)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *deltaHeap) pop() uint64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && s[r] < s[l] {
			l = r
		}
		if s[i] <= s[l] {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	*h = s
	return top
}

// deltaRun is the mutable state of one PropagateDelta call.
type deltaRun struct {
	idx  *topology.Index
	prev *Result
	tb   TieBreaker

	sel          []Route
	settled      []bool
	settledCount int
	status       []uint8
	heap         deltaHeap
	injAt        map[int32][]Injection // dense id -> current injections there

	scratch     []Route
	touched     []int32
	touchedMark []bool
}

// PropagateDelta computes the routes every AS selects under the given
// injections by repairing prev, a Result produced for the same graph
// with (usually) slightly different inputs. flipped names ASes whose
// TieBreaker preferences may differ from the ones that produced prev;
// everywhere else tb must behave identically to prev's tie-breaker
// (netsim translates its events into exactly this contract — the
// engine cannot depend on netsim, so the event is expressed in BGP
// terms: an injection diff plus flipped tie-breaks).
//
// It returns the repaired Result and the ASes whose selection actually
// changed (gained, lost, or switched routes), ascending. When nothing
// can change — identical injections and no flipped AS holds a route —
// it returns prev itself with a nil changed set and zero allocations.
//
// The output is byte-identical to PropagateResult over the same inputs
// under any tie-breaker; the differential, metamorphic, and fuzz suites
// in delta_test.go pin that equivalence.
func PropagateDelta(prev *Result, g *topology.Graph, injections []Injection, flipped []topology.ASN, tb TieBreaker) (*Result, []topology.ASN, error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("bgp: PropagateDelta requires a previous Result")
	}
	if tb == nil {
		tb = MinIngressTieBreaker
	}
	idx := g.Index()
	if idx != prev.idx {
		return nil, nil, fmt.Errorf("bgp: PropagateDelta base is from a different graph")
	}

	// Fast path: identical injections (order-sensitive — callers pass
	// deterministically ordered lists) and no flip touching a settled
	// AS cannot move any selection.
	sameInj := slices.Equal(injections, prev.inj)
	flipLive := false
	for _, as := range flipped {
		di, ok := idx.ID(as)
		if !ok {
			return nil, nil, fmt.Errorf("bgp: flipped AS %v not in topology", as)
		}
		if prev.settled[di] {
			flipLive = true
		}
	}
	if sameInj && !flipLive {
		return prev, nil, nil
	}
	if !sameInj {
		if err := validateInjections(g, injections); err != nil {
			return nil, nil, err
		}
	}

	n := idx.Len()
	d := &deltaRun{
		idx:          idx,
		prev:         prev,
		tb:           tb,
		sel:          slices.Clone(prev.sel),
		settled:      slices.Clone(prev.settled),
		settledCount: prev.settledCount,
		status:       make([]uint8, n),
		touchedMark:  make([]bool, n),
		scratch:      make([]Route, 0, 16),
	}

	// Seed the frontier.
	if !sameInj {
		d.injAt = make(map[int32][]Injection, len(injections))
		for _, inj := range injections {
			di, _ := idx.ID(inj.Neighbor)
			d.injAt[di] = append(d.injAt[di], inj)
		}
		// Per-neighbor injection multiset diff: every injection present
		// in exactly one of (prev, new) seeds its arrival bucket.
		oldS := prev.sortedInjections()
		newS := append([]Injection(nil), injections...)
		sortInjections(newS)
		seed := func(inj Injection) {
			di, _ := idx.ID(inj.Neighbor)
			d.heap.push(deltaKey(inj.Class, 1+inj.Prepend, di))
		}
		i, j := 0, 0
		for i < len(oldS) && j < len(newS) {
			switch c := compareInjections(oldS[i], newS[j]); {
			case c == 0:
				i++
				j++
			case c < 0:
				seed(oldS[i])
				i++
			default:
				seed(newS[j])
				j++
			}
		}
		for ; i < len(oldS); i++ {
			seed(oldS[i])
		}
		for ; j < len(newS); j++ {
			seed(newS[j])
		}
	} else {
		d.injAt = make(map[int32][]Injection, len(prev.inj))
		for _, inj := range prev.inj {
			di, _ := idx.ID(inj.Neighbor)
			d.injAt[di] = append(d.injAt[di], inj)
		}
	}
	for _, as := range flipped {
		di, _ := idx.ID(as)
		if prev.settled[di] {
			r := prev.sel[di]
			d.heap.push(deltaKey(r.Class, r.PathLen, di))
		}
	}

	// Drain the frontier in global settle order.
	for len(d.heap) > 0 {
		k := d.heap.pop()
		for len(d.heap) > 0 && d.heap[0] == k {
			d.heap.pop()
		}
		class, pathLen, y := deltaKeyParts(k)
		d.step(k, class, pathLen, y)
	}

	// Collect the ASes whose final selection actually differs.
	slices.Sort(d.touched)
	var changed []topology.ASN
	for _, y := range d.touched {
		if d.settled[y] != prev.settled[y] || (d.settled[y] && d.sel[y] != prev.sel[y]) {
			changed = append(changed, idx.ASN(y))
		}
	}

	if len(changed) == 0 && sameInj {
		// A flip that did not move any winner: prev stands verbatim.
		return prev, nil, nil
	}
	return &Result{
		idx:          idx,
		sel:          d.sel,
		settled:      d.settled,
		settledCount: d.settledCount,
		inj:          append([]Injection(nil), injections...),
	}, changed, nil
}

// prevKey is the bucket y settled in previously, deltaInf if unsettled.
func (d *deltaRun) prevKey(y int32) uint64 {
	if !d.prev.settled[y] {
		return deltaInf
	}
	r := d.prev.sel[y]
	return deltaKey(r.Class, r.PathLen, y)
}

func (d *deltaRun) markTouched(y int32) {
	if !d.touchedMark[y] {
		d.touchedMark[y] = true
		d.touched = append(d.touched, y)
	}
}

// step re-evaluates AS y at bucket (class, pathLen), key k.
func (d *deltaRun) step(k uint64, class RouteClass, pathLen int, y int32) {
	switch d.status[y] {
	case dsResettled:
		return // already final under the new inputs

	case dsFinal:
		pk := d.prevKey(y)
		if k > pk {
			// y settled earlier than this bucket and nothing below pk
			// invalidated it (that push would have popped first): the
			// previous settle stands; this push is irrelevant.
			return
		}
		cands := d.candidatesAt(y, class, pathLen)
		if k < pk {
			if len(cands) == 0 {
				return // spurious push; pk still pending if it matters
			}
			// y now settles strictly earlier than before.
			r := cands[d.tb(d.idx.ASN(y), cands)]
			if pk != deltaInf {
				// Revoke the old, later settle: its dependents must
				// re-evaluate the buckets it used to export into.
				d.pushExports(y, d.prev.sel[y])
			} else {
				d.settledCount++
			}
			d.sel[y] = r
			d.settled[y] = true
			d.status[y] = dsResettled
			d.markTouched(y)
			d.pushExports(y, r)
			return
		}
		// k == pk: y's previous settle bucket is up for re-evaluation.
		if len(cands) == 0 {
			// Withdrawn: no candidate remains here. Revoke and search
			// later buckets.
			d.status[y] = dsInvalid
			d.settled[y] = false
			d.settledCount--
			d.markTouched(y)
			d.pushExports(y, d.prev.sel[y])
			d.reschedule(y, k)
			return
		}
		r := cands[d.tb(d.idx.ASN(y), cands)]
		d.status[y] = dsResettled
		if r == d.prev.sel[y] {
			return // identical winner: dependents see no change
		}
		d.sel[y] = r
		d.markTouched(y)
		// Same bucket means same (class, length): the old and new
		// export buckets coincide, so one push covers both.
		d.pushExports(y, r)

	case dsInvalid:
		cands := d.candidatesAt(y, class, pathLen)
		if len(cands) == 0 {
			d.reschedule(y, k)
			return
		}
		r := cands[d.tb(d.idx.ASN(y), cands)]
		d.sel[y] = r
		d.settled[y] = true
		d.settledCount++
		d.status[y] = dsResettled
		d.pushExports(y, r)
	}
}

// candidatesAt reconstructs the tied candidate set the full engine's
// settleBucket would present to the TieBreaker for y at (class,
// pathLen): contributions from neighbors settled one bucket earlier in
// the phase's export direction, plus matching direct injections, in
// ascending (ingress, via) order. Contributor state below the current
// key is final (the invariant the pop order maintains), so reading the
// working arrays is exact.
func (d *deltaRun) candidatesAt(y int32, class RouteClass, pathLen int) []Route {
	cands := d.scratch[:0]
	add := func(ing IngressID, via int32) {
		cands = append(cands, Route{Ingress: ing, PathLen: pathLen, Class: class, Via: d.idx.ASN(via)})
	}
	switch class {
	case ClassCustomer:
		// Phase 1: customer routes climb provider links.
		for _, c := range d.idx.Customers(y) {
			if d.settled[c] && d.sel[c].Class == ClassCustomer && d.sel[c].PathLen == pathLen-1 {
				add(d.sel[c].Ingress, c)
			}
		}
	case ClassPeer:
		// Phase 2: one hop across peer links from customer-settled ASes.
		for _, p := range d.idx.Peers(y) {
			if d.settled[p] && d.sel[p].Class == ClassCustomer && d.sel[p].PathLen == pathLen-1 {
				add(d.sel[p].Ingress, p)
			}
		}
	case ClassProvider:
		// Phase 3: any settled provider exports down to customers.
		for _, p := range d.idx.Providers(y) {
			if d.settled[p] && d.sel[p].PathLen == pathLen-1 {
				add(d.sel[p].Ingress, p)
			}
		}
	}
	for _, inj := range d.injAt[y] {
		if inj.Class == class && 1+inj.Prepend == pathLen {
			add(inj.Ingress, y)
		}
	}
	// Ascending (ingress, via): dense ids ascend with ASN, so this is
	// the order sortCands leaves each AS's group in.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].Ingress < cands[j-1].Ingress ||
			(cands[j].Ingress == cands[j-1].Ingress && cands[j].Via < cands[j-1].Via)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	d.scratch = cands
	return cands
}

// pushExports pushes the buckets route r at y exports into, honoring
// valley-free rules: customer-learned routes go up to providers and
// across to peers; every settled route goes down to customers.
func (d *deltaRun) pushExports(y int32, r Route) {
	l := r.PathLen + 1
	if r.Class == ClassCustomer {
		for _, p := range d.idx.Providers(y) {
			d.pushTo(p, deltaKey(ClassCustomer, l, p))
		}
		for _, p := range d.idx.Peers(y) {
			d.pushTo(p, deltaKey(ClassPeer, l, p))
		}
	}
	for _, c := range d.idx.Customers(y) {
		d.pushTo(c, deltaKey(ClassProvider, l, c))
	}
}

// pushTo enqueues bucket k for AS t unless it provably cannot matter:
// t already resettled (its final bucket is below any future push), or
// t's unrevoked previous settle is strictly below k (equal must push —
// the tie set at the settle bucket may have changed).
func (d *deltaRun) pushTo(t int32, k uint64) {
	switch d.status[t] {
	case dsResettled:
		return
	case dsFinal:
		if k > d.prevKey(t) {
			return
		}
	}
	d.heap.push(k)
}

// reschedule finds the earliest bucket after `after` where y could
// possibly settle given current neighbor state and injections, and
// pushes it. Conservative by design: contributors that change later
// push y themselves (pushes to dsInvalid ASes are never pruned), so a
// missed future bucket is always re-offered.
func (d *deltaRun) reschedule(y int32, after uint64) {
	best := deltaInf
	consider := func(k uint64) {
		if k > after && k < best {
			best = k
		}
	}
	for _, c := range d.idx.Customers(y) {
		if d.settled[c] && d.sel[c].Class == ClassCustomer {
			consider(deltaKey(ClassCustomer, d.sel[c].PathLen+1, y))
		}
	}
	for _, p := range d.idx.Peers(y) {
		if d.settled[p] && d.sel[p].Class == ClassCustomer {
			consider(deltaKey(ClassPeer, d.sel[p].PathLen+1, y))
		}
	}
	for _, p := range d.idx.Providers(y) {
		if d.settled[p] {
			consider(deltaKey(ClassProvider, d.sel[p].PathLen+1, y))
		}
	}
	for _, inj := range d.injAt[y] {
		consider(deltaKey(inj.Class, 1+inj.Prepend, y))
	}
	if best != deltaInf {
		d.heap.push(best)
	}
}
