// Package bgp implements the BGP machinery PAINTER depends on: a BGP-4
// wire codec, RIBs with the standard decision process, a minimal TCP
// speaker, and — most importantly for the evaluation — a whole-graph
// route propagation engine that computes, for every AS in a topology,
// which route (and therefore which cloud ingress) it selects under a
// given advertisement, following Gao–Rexford export and selection rules.
package bgp

import (
	"fmt"
	"time"

	"painter/internal/topology"
)

// IngressID identifies one cloud ingress: a specific (PoP, peer AS)
// peering at which traffic enters the cloud. The cloud package assigns
// these; the propagation engine treats them as opaque route tags.
type IngressID int32

// InvalidIngress is the zero value, never assigned to a real peering.
const InvalidIngress IngressID = -1

// RouteClass is the Gao–Rexford preference class of a learned route,
// ordered best-first: routes learned from customers are preferred over
// routes learned from peers over routes learned from providers.
type RouteClass int8

const (
	ClassCustomer RouteClass = iota // learned from a customer
	ClassPeer                       // learned from a peer
	ClassProvider                   // learned from a provider
)

func (c RouteClass) String() string {
	switch c {
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	default:
		return "invalid"
	}
}

// Route is a candidate or selected route at some AS for one prefix.
type Route struct {
	// Ingress tags the cloud peering where traffic following this route
	// enters the cloud.
	Ingress IngressID
	// PathLen is the AS-path length from this AS to the origin,
	// counting the origin.
	PathLen int
	// Class is the relationship class the route was learned through.
	Class RouteClass
	// Via is the neighbor AS the route was learned from (the next hop
	// toward the cloud). For injection neighbors it is the origin.
	Via topology.ASN
}

// Better reports whether r is strictly preferred over o by the standard
// decision process prior to tie-breaking: lower class first (customer <
// peer < provider), then shorter AS path.
func (r Route) Better(o Route) bool {
	if r.Class != o.Class {
		return r.Class < o.Class
	}
	return r.PathLen < o.PathLen
}

// Injection is a point where the cloud injects an advertisement into the
// topology: the neighbor AS receiving the advertisement, the class that
// route has at the neighbor (determined by the neighbor's relationship to
// the cloud: a transit provider of the cloud learns it from a customer,
// a settlement-free peer learns it from a peer), and the ingress tag.
//
// Prepend adds that many extra copies of the cloud's ASN to the
// advertised AS path on this peering only, making the route less
// preferred wherever path length decides — the standard attribute-
// manipulation knob prior work uses to expose additional paths
// (§5.2.4's "All Policy-Compliant Paths" upper bound).
type Injection struct {
	Neighbor topology.ASN
	Class    RouteClass
	Ingress  IngressID
	Prepend  int
}

// TieBreaker chooses among routes that are tied on (class, path length).
// It returns the index of the chosen candidate. The candidates slice is
// sorted deterministically before the call, so implementations may use
// any stable rule (e.g., hidden per-AS preferences in netsim, or lowest
// ingress ID for a deterministic default).
type TieBreaker func(as topology.ASN, candidates []Route) int

// MinIngressTieBreaker picks the candidate with the lowest ingress ID,
// then lowest via ASN: a deterministic default.
func MinIngressTieBreaker(_ topology.ASN, candidates []Route) int {
	best := 0
	for i := 1; i < len(candidates); i++ {
		c, b := candidates[i], candidates[best]
		if c.Ingress < b.Ingress || (c.Ingress == b.Ingress && c.Via < b.Via) {
			best = i
		}
	}
	return best
}

// validateInjections shares input validation between the dense engine
// and the reference implementation.
func validateInjections(g *topology.Graph, injections []Injection) error {
	for _, inj := range injections {
		if !g.Has(inj.Neighbor) {
			return fmt.Errorf("bgp: injection neighbor %v not in topology", inj.Neighbor)
		}
		if inj.Ingress < 0 {
			return fmt.Errorf("bgp: invalid ingress id %d", inj.Ingress)
		}
		if inj.Prepend < 0 || inj.Prepend > 16 {
			return fmt.Errorf("bgp: prepend %d out of range [0,16]", inj.Prepend)
		}
	}
	return nil
}

// denseCand is one pending candidate route at a dense AS id. Path
// length is implied by the bucket holding the candidate and the route
// class by the propagation phase, so only 12 bytes move through the
// queue and its sorts. via is a dense id; dense ids ascend with ASN, so
// sorting by via is sorting by the neighbor's ASN.
type denseCand struct {
	as  int32
	ing int32
	via int32
}

// sortCands orders candidates by (as, ing, via) — grouping each AS's
// candidates contiguously, already in the deterministic order the
// TieBreaker contract requires. Hand-specialized (insertion sort under
// a median-of-three quicksort) because sort.Slice's reflection-based
// swapper dominated the propagation profile.
func sortCands(e []denseCand) {
	for len(e) > 12 {
		// Median-of-three pivot, moved to e[0].
		m := len(e) / 2
		lo, hi := 0, len(e)-1
		if candLess(e[m], e[lo]) {
			e[m], e[lo] = e[lo], e[m]
		}
		if candLess(e[hi], e[lo]) {
			e[hi], e[lo] = e[lo], e[hi]
		}
		if candLess(e[hi], e[m]) {
			e[hi], e[m] = e[m], e[hi]
		}
		e[0], e[m] = e[m], e[0]
		p := e[0]
		i, j := 1, len(e)-1
		for {
			for i <= j && candLess(e[i], p) {
				i++
			}
			for i <= j && candLess(p, e[j]) {
				j--
			}
			if i > j {
				break
			}
			e[i], e[j] = e[j], e[i]
			i++
			j--
		}
		e[0], e[j] = e[j], e[0]
		// Recurse on the smaller half, loop on the larger.
		if j < len(e)-j-1 {
			sortCands(e[:j])
			e = e[j+1:]
		} else {
			sortCands(e[j+1:])
			e = e[:j]
		}
	}
	for i := 1; i < len(e); i++ {
		for k := i; k > 0 && candLess(e[k], e[k-1]); k-- {
			e[k], e[k-1] = e[k-1], e[k]
		}
	}
}

func candLess(a, b denseCand) bool {
	if a.as != b.as {
		return a.as < b.as
	}
	if a.ing != b.ing {
		return a.ing < b.ing
	}
	return a.via < b.via
}

// bucketQueue holds pending candidates bucketed by path length, the
// dense replacement for the reference engine's map[int]map[ASN][]Route
// level maps. Buckets grow on demand and backing arrays are reused
// across phases; each bucket is processed exactly once.
type bucketQueue struct {
	buckets [][]denseCand
}

func (q *bucketQueue) add(pathLen int, c denseCand) {
	for len(q.buckets) <= pathLen {
		if len(q.buckets) < cap(q.buckets) {
			// Re-extend over a retained bucket, keeping its capacity.
			q.buckets = q.buckets[:len(q.buckets)+1]
			q.buckets[len(q.buckets)-1] = q.buckets[len(q.buckets)-1][:0]
		} else {
			q.buckets = append(q.buckets, nil)
		}
	}
	q.buckets[pathLen] = append(q.buckets[pathLen], c)
}

// reset empties the queue for the next phase, retaining backing arrays.
func (q *bucketQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.buckets = q.buckets[:0]
}

// Propagate computes the route every AS selects for one prefix announced
// via the given injections, honoring valley-free export rules:
//
//   - customer-learned routes are exported to providers, peers, and
//     customers;
//   - peer-learned and provider-learned routes are exported only to
//     customers.
//
// Selection is class-first, then shortest path, then the tie-breaker.
// The returned map contains an entry for every AS that has any route.
//
// The engine runs the classic three-phase BFS (up the customer
// hierarchy, across one peer hop, down to customers) over the graph's
// dense index: selection state lives in flat arrays indexed by dense AS
// id, and pending candidates sit in a bucket queue keyed by path length.
// The map-based original survives as the test-only PropagateReference
// (reference_test.go); the two select identical routes under any
// tie-breaker (see the differential tests).
func Propagate(g *topology.Graph, injections []Injection, tb TieBreaker) (map[topology.ASN]Route, error) {
	res, err := PropagateResult(g, injections, tb)
	if err != nil {
		return nil, err
	}
	return res.selectionMap(), nil
}

// PropagateResult runs the same engine but retains the dense selection
// state as a *Result, the warm base PropagateDelta repairs after small
// input changes instead of re-propagating the whole graph.
func PropagateResult(g *topology.Graph, injections []Injection, tb TieBreaker) (*Result, error) {
	if tb == nil {
		tb = MinIngressTieBreaker
	}
	if err := validateInjections(g, injections); err != nil {
		return nil, err
	}

	// Instrumentation is one pointer load when disabled; candidate and
	// bucket accounting below is per-bucket and only when m != nil.
	m := propObs.Load()
	var start time.Time
	var cands, maxBucket int
	if m != nil {
		start = time.Now()
	}

	idx := g.Index()
	n := idx.Len()
	sel := make([]Route, n)
	settled := make([]bool, n)
	settledCount := 0

	// scratch collects one AS's tied candidates for the tie-breaker; it
	// is reused across every settle to keep the engine allocation-free
	// on the hot path.
	scratch := make([]Route, 0, 16)

	// settleBucket settles every not-yet-settled AS that has candidates
	// in ents, all of which share pathLen (the bucket key) and class
	// (the phase). One sortCands per bucket groups each AS's candidates
	// contiguously, already in the deterministic (ingress, via) order
	// the TieBreaker contract requires; the group IS the tied-candidate
	// set. export (optional) is invoked once per newly settled AS.
	settleBucket := func(ents []denseCand, pathLen int, class RouteClass, export func(as int32, r Route)) {
		if len(ents) == 0 {
			return
		}
		sortCands(ents)
		for s := 0; s < len(ents); {
			e := s
			for e < len(ents) && ents[e].as == ents[s].as {
				e++
			}
			as := ents[s].as
			if !settled[as] {
				scratch = scratch[:0]
				for k := s; k < e; k++ {
					scratch = append(scratch, Route{
						Ingress: IngressID(ents[k].ing),
						PathLen: pathLen,
						Class:   class,
						Via:     idx.ASN(ents[k].via),
					})
				}
				r := scratch[tb(idx.ASN(as), scratch)]
				sel[as] = r
				settled[as] = true
				settledCount++
				if export != nil {
					export(as, r)
				}
			}
			s = e
		}
	}

	// --- Phase 1: customer routes propagate up provider chains.
	var q bucketQueue
	for _, inj := range injections {
		if inj.Class != ClassCustomer {
			continue
		}
		ni, _ := idx.ID(inj.Neighbor)
		q.add(1+inj.Prepend, denseCand{as: ni, ing: int32(inj.Ingress), via: ni})
	}
	exportUp := func(as int32, r Route) {
		for _, p := range idx.Providers(as) {
			if !settled[p] {
				q.add(r.PathLen+1, denseCand{as: p, ing: int32(r.Ingress), via: as})
			}
		}
	}
	for l := 1; l < len(q.buckets); l++ {
		if m != nil && len(q.buckets[l]) > 0 {
			cands += len(q.buckets[l])
			maxBucket = l
		}
		settleBucket(q.buckets[l], l, ClassCustomer, exportUp)
		q.buckets[l] = q.buckets[l][:0]
	}

	// --- Phase 2: one hop across peer links. Sources: all ASes settled
	// with a customer route, plus direct peer injections. No further
	// export, so all candidates are enqueued before any settling; the
	// ascending bucket scan realizes the settle-at-min-path-length rule.
	q.reset()
	for _, inj := range injections {
		if inj.Class != ClassPeer {
			continue
		}
		ni, _ := idx.ID(inj.Neighbor)
		if settled[ni] {
			continue
		}
		q.add(1+inj.Prepend, denseCand{as: ni, ing: int32(inj.Ingress), via: ni})
	}
	for as := int32(0); as < int32(n); as++ {
		if !settled[as] || sel[as].Class != ClassCustomer {
			continue
		}
		r := sel[as]
		for _, p := range idx.Peers(as) {
			if !settled[p] {
				q.add(r.PathLen+1, denseCand{as: p, ing: int32(r.Ingress), via: as})
			}
		}
	}
	for l := 1; l < len(q.buckets); l++ {
		if m != nil && len(q.buckets[l]) > 0 {
			cands += len(q.buckets[l])
			if l > maxBucket {
				maxBucket = l
			}
		}
		settleBucket(q.buckets[l], l, ClassPeer, nil)
		q.buckets[l] = q.buckets[l][:0]
	}

	// --- Phase 3: routes propagate down provider→customer edges,
	// Dijkstra-like by path length via the bucket queue. Sources are all
	// settled ASes plus provider-class injections.
	q.reset()
	for _, inj := range injections {
		if inj.Class != ClassProvider {
			continue
		}
		ni, _ := idx.ID(inj.Neighbor)
		if settled[ni] {
			continue
		}
		q.add(1+inj.Prepend, denseCand{as: ni, ing: int32(inj.Ingress), via: ni})
	}
	exportDown := func(as int32, r Route) {
		for _, c := range idx.Customers(as) {
			if !settled[c] {
				q.add(r.PathLen+1, denseCand{as: c, ing: int32(r.Ingress), via: as})
			}
		}
	}
	for as := int32(0); as < int32(n); as++ {
		if settled[as] {
			exportDown(as, sel[as])
		}
	}
	for l := 1; l < len(q.buckets); l++ {
		if m != nil && len(q.buckets[l]) > 0 {
			cands += len(q.buckets[l])
			if l > maxBucket {
				maxBucket = l
			}
		}
		settleBucket(q.buckets[l], l, ClassProvider, exportDown)
		q.buckets[l] = q.buckets[l][:0]
	}

	if m != nil {
		m.total.Inc()
		m.seconds.Observe(time.Since(start).Seconds())
		m.candidates.Observe(float64(cands))
		m.buckets.Observe(float64(maxBucket))
		m.settled.Observe(float64(settledCount))
	}
	return &Result{
		idx:          idx,
		sel:          sel,
		settled:      settled,
		settledCount: settledCount,
		inj:          append([]Injection(nil), injections...),
	}, nil
}

// ReachableIngresses computes, for one AS, the set of ingresses it could
// possibly use across ALL policy-compliant paths (not just the selected
// one): for each injection, the AS can reach that ingress if a valley-
// free path exists from the AS to the injection neighbor. This is the
// "all policy-compliant ingresses" set of §3.1 and §5.2.4, used both for
// modeling (Eq. 2's expectation) and for path-diversity counting.
//
// A valley-free path from source AS s to neighbor n (then into the cloud)
// exists iff: n is reachable from s by an up*(peer?)down* walk. We compute
// it per injection by checking: (a) s is in the customer cone of n
// (pure down from n = pure up from s), or (b) s can go up to some AS x
// that peers with an AS y that has n in its customer cone, or (c) s can
// go up to an AS that has n in its customer cone.
//
// The walk runs over the graph's dense index with flat visited arrays
// (an epoch stamp avoids reallocating between injections).
func ReachableIngresses(g *topology.Graph, src topology.ASN, injections []Injection) map[IngressID]bool {
	out := make(map[IngressID]bool)
	idx := g.Index()
	s, ok := idx.ID(src)
	if !ok {
		return out
	}
	n := idx.Len()

	// inUp: src and every AS reachable from src following provider links.
	// inPeer: ASes adjacent via one peer hop from any AS in inUp.
	inUp := make([]bool, n)
	inPeer := make([]bool, n)
	stack := make([]int32, 0, 64)
	stack = append(stack, s)
	inUp[s] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range idx.Providers(cur) {
			if !inUp[p] {
				inUp[p] = true
				stack = append(stack, p)
			}
		}
	}
	for x := int32(0); x < int32(n); x++ {
		if !inUp[x] {
			continue
		}
		for _, p := range idx.Peers(x) {
			inPeer[p] = true
		}
	}

	// seen is epoch-stamped so the per-injection cone BFS reuses it.
	seen := make([]int32, n)
	epoch := int32(0)

	for _, inj := range injections {
		if out[inj.Ingress] {
			continue
		}
		ni, _ := idx.ID(inj.Neighbor)
		// The traffic direction is src -> n -> cloud. Export rules
		// constrain which ASes ever HEAR the route:
		//   - customer-class injections (n is cloud's transit provider)
		//     propagate everywhere;
		//   - peer/provider-class injections propagate only down n's
		//     customer cone.
		switch inj.Class {
		case ClassCustomer:
			// Any AS with a valley-free walk to n can use it: n in inUp
			// (straight up), n in inPeer (up then one peer hop), or some
			// transitive provider of n in inUp∪inPeer (up, maybe peer,
			// then down into n). The last case BFSes up from n.
			if inUp[ni] || inPeer[ni] {
				out[inj.Ingress] = true
				continue
			}
			epoch++
			stack = stack[:0]
			stack = append(stack, ni)
			seen[ni] = epoch
			found := false
			for len(stack) > 0 && !found {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if inUp[cur] || inPeer[cur] {
					found = true
					break
				}
				for _, p := range idx.Providers(cur) {
					if seen[p] != epoch {
						seen[p] = epoch
						stack = append(stack, p)
					}
				}
			}
			if found {
				out[inj.Ingress] = true
			}
		default:
			// Peer- and provider-class routes are exported only to
			// customers, so the route is heard exactly by n and n's
			// customer cone; src is in that cone iff n is src itself or
			// one of src's transitive providers — i.e., n ∈ inUp.
			if inUp[ni] {
				out[inj.Ingress] = true
			}
		}
	}
	return out
}
