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

// minIngressTieBreaker picks the candidate with the lowest ingress ID,
// then lowest via ASN: a deterministic default.
func minIngressTieBreaker(_ topology.ASN, candidates []Route) int {
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

// PropagateResult computes the route every AS selects for one prefix
// announced via the given injections, honoring valley-free export rules:
//
//   - customer-learned routes are exported to providers, peers, and
//     customers;
//   - peer-learned and provider-learned routes are exported only to
//     customers.
//
// Selection is class-first, then shortest path, then the tie-breaker.
// The Result holds a route for every AS that has any (read with Route);
// it is also the warm base PropagateDelta repairs after small input
// changes instead of re-propagating the whole graph.
//
// The engine is PropagateDelta's settle loop (delta.go) run from the
// empty Result: selection state lives in flat arrays indexed by dense
// AS id, and pending ASes sit in a bucket queue keyed by (class, path
// length). The map-based original survives as the test-only
// PropagateReference (reference_test.go); the two select identical
// routes under any tie-breaker (see the differential tests).
func PropagateResult(g *topology.Graph, injections []Injection, tb TieBreaker) (*Result, error) {
	if tb == nil {
		tb = minIngressTieBreaker
	}
	if err := validateInjections(g, injections); err != nil {
		return nil, err
	}

	// Instrumentation is one pointer load when disabled.
	m := propObs.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}

	// The repair of the empty Result: every injection is new, and no
	// changed-AS list is built (it would be every settled AS).
	d := newRun(g.Index(), nil, injections, tb)
	for _, inj := range injections {
		d.seed(inj)
	}
	d.drain()
	res := d.result(injections)
	d.release()

	if m != nil {
		m.total.Inc()
		m.seconds.Observe(time.Since(start).Seconds())
	}
	return res, nil
}
