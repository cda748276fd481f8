package bgp

// The propagation engine. Every propagation is a repair: PropagateDelta
// repairs a previous Result after a small input change (most netsim
// events perturb only the catchment cone of the change), and
// PropagateResult is the same repair of the empty Result, where every
// injection is new.
//
// The engine settles ASes in a fixed global order: class-major
// (customer < peer < provider), path-length-minor. Crucially, the tied
// candidate set an AS sees at its settle bucket depends only on ASes
// settled at strictly smaller (class, length) keys — the dependency
// order is acyclic. The engine exploits that:
//
//   - The frontier is a bucket queue with one bucket of dense AS ids
//     per (class, path length), drained class-major, length-minor
//     (settleKey orders the buckets).
//   - The change seeds the frontier: the arrival buckets of injections
//     that differ from prev's (per-neighbor multiset diff; from the
//     empty Result, every injection), plus the settle buckets of ASes
//     whose tie-break preferences flipped.
//   - Draining AS y from a bucket re-derives y's tied candidate set AT
//     that bucket from current neighbor state (candidatesAt, in
//     ascending (ingress, via) order), and compares against the
//     previous settle:
//       * unchanged winner — dependents unaffected, no pushes;
//       * changed/withdrawn — the AS's old and new export buckets are
//         pushed so dependents re-evaluate, and a withdrawn AS
//         reschedules itself at the next bucket it could settle in.
//   - ASes never reached by a push keep their previous route verbatim.
//
// Exactness argument (pinned by the differential suites against
// PropagateReference): every push lands in a bucket strictly after the
// one being drained — exports at PathLen+1, reschedules after the
// current key — and candidatesAt reads only routes of earlier buckets,
// so order inside a bucket does not matter and duplicates are absorbed
// by the per-AS status. When a bucket is drained, every AS's
// settled-below-it state is final: changed contributors push their old
// and new export buckets (both after their own settle key), so any
// bucket whose candidate set differs from prev's is queued before it
// is reached, and an unchanged candidate set at an AS's previous
// settle bucket implies (inductively) the previous selection stands.
// Because candidatesAt rebuilds the full tied set, the TieBreaker sees
// the inputs a from-scratch propagation would give it — the
// equivalence holds for arbitrary tie-breakers, not just default ones.

import (
	"fmt"
	"slices"
	"sync"

	"painter/internal/topology"
)

// Settle status per AS.
const (
	dsFinal     uint8 = iota // previous settle presumed to stand
	dsInvalid                // previous settle revoked; searching for a new bucket
	dsResettled              // settled under the new inputs; final
)

// keyInf is the bucket key of an unsettled AS: after every real key.
const keyInf = ^uint64(0)

// settleKey orders buckets class-major, length-minor: class<<32 |
// pathLen. Keys are only ever compared for one AS.
func settleKey(class RouteClass, pathLen int) uint64 {
	return uint64(class)<<32 | uint64(uint32(pathLen))
}

// settleQueue is the frontier: dense AS ids bucketed by route class and
// path length. Buckets are emptied by the drain but never dropped, so
// their backing arrays are kept across drains and runs.
type settleQueue [ClassProvider + 1][][]int32

func (q *settleQueue) push(class RouteClass, pathLen int, as int32) {
	for len(q[class]) <= pathLen {
		q[class] = append(q[class], nil)
	}
	q[class][pathLen] = append(q[class][pathLen], as)
}

// deltaRun is the state of one engine run. The fields below the
// selection arrays are pooled scratch, returned clean by release.
type deltaRun struct {
	idx  *topology.Index
	prev *Result // nil: the empty Result
	tb   TieBreaker
	inj  []Injection

	sel          []Route
	settled      []bool
	settledCount int

	status  []uint8
	touched []int32 // ASes that left dsFinal with a changed selection, each once
	queue   settleQueue
	scratch []Route
	injHead []int32 // dense id -> 1 + index in inj of its first injection, 0 if none
	injNext []int32 // index in inj -> 1 + index of the next injection at the same AS, 0 if none
}

var runPool = sync.Pool{New: func() any { return new(deltaRun) }}

// sized returns s resliced to n, reallocating only when it is too short.
// Pooled slices are kept zeroed up to their capacity.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newRun takes a pooled run over idx that starts from a copy of prev's
// selection (nil prev: the empty Result).
func newRun(idx *topology.Index, prev *Result, injections []Injection, tb TieBreaker) *deltaRun {
	d := runPool.Get().(*deltaRun)
	n := idx.Len()
	d.idx, d.prev, d.tb, d.inj = idx, prev, tb, injections
	if prev == nil {
		d.sel, d.settled, d.settledCount = make([]Route, n), make([]bool, n), 0
	} else {
		d.sel, d.settled, d.settledCount = slices.Clone(prev.sel), slices.Clone(prev.settled), prev.settledCount
	}
	d.status = sized(d.status, n)
	d.injHead = sized(d.injHead, n)
	d.injNext = sized(d.injNext, len(injections))
	for i, inj := range injections {
		di, _ := idx.ID(inj.Neighbor)
		d.injNext[i] = d.injHead[di]
		d.injHead[di] = int32(i + 1)
	}
	return d
}

// release zeroes the pooled scratch and returns the run to the pool.
func (d *deltaRun) release() {
	clear(d.status)
	clear(d.injHead)
	d.touched = d.touched[:0]
	d.idx, d.prev, d.tb, d.inj, d.sel, d.settled = nil, nil, nil, nil, nil, nil
	runPool.Put(d)
}

// result wraps the run's selection arrays in a Result for injections.
func (d *deltaRun) result(injections []Injection) *Result {
	return &Result{
		idx:          d.idx,
		sel:          d.sel,
		settled:      d.settled,
		settledCount: d.settledCount,
		inj:          append([]Injection(nil), injections...),
	}
}

// seed queues the arrival bucket of one injection.
func (d *deltaRun) seed(inj Injection) {
	di, _ := d.idx.ID(inj.Neighbor)
	d.queue.push(inj.Class, 1+inj.Prepend, di)
}

// drain settles the frontier in global settle order. No push lands in
// the bucket being drained, so each bucket is read once.
func (d *deltaRun) drain() {
	for c := ClassCustomer; c <= ClassProvider; c++ {
		for l := 0; l < len(d.queue[c]); l++ {
			b := d.queue[c][l]
			for _, y := range b {
				d.step(c, l, y)
			}
			d.queue[c][l] = b[:0]
		}
	}
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
// The output is byte-identical to PropagateResult and to the test-only
// PropagateReference over the same inputs under any tie-breaker, as the
// suites in delta_test.go and delta_fuzz_test.go pin.
func PropagateDelta(prev *Result, g *topology.Graph, injections []Injection, flipped []topology.ASN, tb TieBreaker) (*Result, []topology.ASN, error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("bgp: PropagateDelta requires a previous Result")
	}
	if tb == nil {
		tb = minIngressTieBreaker
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

	d := newRun(idx, prev, injections, tb)
	defer d.release()

	// Seed the frontier.
	if !sameInj {
		// Per-neighbor injection multiset diff: every injection present
		// in exactly one of (prev, new) seeds its arrival bucket.
		oldS := prev.sortedInjections()
		newS := slices.Clone(injections)
		slices.SortFunc(newS, compareInjections)
		i, j := 0, 0
		for i < len(oldS) && j < len(newS) {
			switch c := compareInjections(oldS[i], newS[j]); {
			case c == 0:
				i++
				j++
			case c < 0:
				d.seed(oldS[i])
				i++
			default:
				d.seed(newS[j])
				j++
			}
		}
		for ; i < len(oldS); i++ {
			d.seed(oldS[i])
		}
		for ; j < len(newS); j++ {
			d.seed(newS[j])
		}
	}
	for _, as := range flipped {
		di, _ := idx.ID(as)
		if prev.settled[di] {
			r := prev.sel[di]
			d.queue.push(r.Class, r.PathLen, di)
		}
	}
	d.drain()

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
	return d.result(injections), changed, nil
}

// prevKey is the bucket y settled in previously, keyInf if unsettled.
func (d *deltaRun) prevKey(y int32) uint64 {
	if d.prev == nil || !d.prev.settled[y] {
		return keyInf
	}
	r := d.prev.sel[y]
	return settleKey(r.Class, r.PathLen)
}

// step re-evaluates AS y at bucket (class, pathLen).
func (d *deltaRun) step(class RouteClass, pathLen int, y int32) {
	k := settleKey(class, pathLen)
	switch d.status[y] {
	case dsResettled:
		return // already final under the new inputs

	case dsFinal:
		pk := d.prevKey(y)
		if k > pk {
			// y settled earlier than this bucket and nothing below pk
			// invalidated it (that push would have drained first): the
			// previous settle stands; this push is irrelevant.
			return
		}
		cands := d.candidatesAt(y, class, pathLen)
		if k < pk {
			if len(cands) == 0 {
				return // spurious push; pk still pending if it matters
			}
			// y now settles strictly earlier than before.
			if pk != keyInf {
				// Revoke the old, later settle: its dependents must
				// re-evaluate the buckets it used to export into.
				d.pushExports(y, d.prev.sel[y])
				d.settledCount--
			}
			d.touched = append(d.touched, y)
			d.settle(y, cands)
			return
		}
		// k == pk: y's previous settle bucket is up for re-evaluation.
		if len(cands) == 0 {
			// Withdrawn: no candidate remains here. Revoke and search
			// later buckets.
			d.status[y] = dsInvalid
			d.settled[y] = false
			d.settledCount--
			d.touched = append(d.touched, y)
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
		d.touched = append(d.touched, y)
		// Same bucket means same (class, length): the old and new
		// export buckets coincide, so one push covers both.
		d.pushExports(y, r)

	case dsInvalid:
		if cands := d.candidatesAt(y, class, pathLen); len(cands) > 0 {
			d.settle(y, cands)
		} else {
			d.reschedule(y, k)
		}
	}
}

// settle gives y the tie-breaker's pick of cands as its final route and
// pushes the buckets that route exports into.
func (d *deltaRun) settle(y int32, cands []Route) {
	r := cands[d.tb(d.idx.ASN(y), cands)]
	d.sel[y] = r
	d.settled[y] = true
	d.settledCount++
	d.status[y] = dsResettled
	d.pushExports(y, r)
}

// feeders returns the neighbors y can learn a route of the given class
// from: its customers, its peers or its providers.
func (d *deltaRun) feeders(y int32, class RouteClass) []int32 {
	switch class {
	case ClassCustomer:
		return d.idx.Customers(y)
	case ClassPeer:
		return d.idx.Peers(y)
	}
	return d.idx.Providers(y)
}

// feeds reports whether v's selected route reaches the neighbors it
// feeds as a route of the given class. Valley-free export: only
// customer-learned routes go up and across; every route goes down.
func (d *deltaRun) feeds(v int32, class RouteClass) bool {
	return d.settled[v] && (class == ClassProvider || d.sel[v].Class == ClassCustomer)
}

// candidatesAt reconstructs the tied candidate set y has at (class,
// pathLen): routes from feeders settled one bucket earlier, plus
// matching direct injections, in ascending (ingress, via) order — the
// deterministic order the TieBreaker contract requires. Contributor
// state below the current bucket is final (the invariant the drain
// order maintains), so reading the working arrays is exact.
func (d *deltaRun) candidatesAt(y int32, class RouteClass, pathLen int) []Route {
	d.scratch = d.scratch[:0]
	add := func(ing IngressID, via int32) {
		d.scratch = append(d.scratch, Route{Ingress: ing, PathLen: pathLen, Class: class, Via: d.idx.ASN(via)})
	}
	for _, v := range d.feeders(y, class) {
		if d.feeds(v, class) && d.sel[v].PathLen == pathLen-1 {
			add(d.sel[v].Ingress, v)
		}
	}
	for j := d.injHead[y]; j != 0; j = d.injNext[j-1] {
		if inj := d.inj[j-1]; inj.Class == class && 1+inj.Prepend == pathLen {
			add(inj.Ingress, y)
		}
	}
	// Ascending (ingress, via); dense ids ascend with ASN.
	cands := d.scratch
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].Ingress < cands[j-1].Ingress ||
			(cands[j].Ingress == cands[j-1].Ingress && cands[j].Via < cands[j-1].Via)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands
}

// pushExports pushes the buckets route r at y exports into, honoring
// valley-free rules: customer-learned routes go up to providers and
// across to peers; every settled route goes down to customers.
func (d *deltaRun) pushExports(y int32, r Route) {
	l := r.PathLen + 1
	if r.Class == ClassCustomer {
		for _, p := range d.idx.Providers(y) {
			d.pushTo(p, ClassCustomer, l)
		}
		for _, p := range d.idx.Peers(y) {
			d.pushTo(p, ClassPeer, l)
		}
	}
	for _, c := range d.idx.Customers(y) {
		d.pushTo(c, ClassProvider, l)
	}
}

// pushTo queues AS t at bucket (class, pathLen) unless it provably
// cannot matter: t already resettled (its final bucket is below any
// future push), or t's unrevoked previous settle is strictly below the
// bucket (equal must push — the tie set at the settle bucket may have
// changed).
func (d *deltaRun) pushTo(t int32, class RouteClass, pathLen int) {
	switch d.status[t] {
	case dsResettled:
		return
	case dsFinal:
		if settleKey(class, pathLen) > d.prevKey(t) {
			return
		}
	}
	d.queue.push(class, pathLen, t)
}

// reschedule finds the earliest bucket after `after` where y could
// possibly settle given current neighbor state and injections, and
// queues y there. Conservative by design: contributors that change
// later push y themselves (pushes to dsInvalid ASes are never pruned),
// so a missed future bucket is always re-offered.
func (d *deltaRun) reschedule(y int32, after uint64) {
	best := keyInf
	consider := func(class RouteClass, pathLen int) {
		if k := settleKey(class, pathLen); k > after && k < best {
			best = k
		}
	}
	for c := ClassCustomer; c <= ClassProvider; c++ {
		for _, v := range d.feeders(y, c) {
			if d.feeds(v, c) {
				consider(c, d.sel[v].PathLen+1)
			}
		}
	}
	for j := d.injHead[y]; j != 0; j = d.injNext[j-1] {
		inj := d.inj[j-1]
		consider(inj.Class, 1+inj.Prepend)
	}
	if best != keyInf {
		d.queue.push(RouteClass(best>>32), int(uint32(best)), y)
	}
}
