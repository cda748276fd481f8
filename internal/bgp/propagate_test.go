package bgp

import (
	"bytes"
	"testing"

	"painter/internal/topology"
)

// testGraph builds:
//
//	   1 --peer-- 2          tier-1
//	  /  \       /  \
//	10    11   12    13      tier-2 (customers)
//	 |      \  /      |
//	100     101      102     stubs
//
// plus a peer link 10--12.
func testGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	add := func(n topology.ASN, tier topology.Tier) {
		if err := g.AddAS(&topology.AS{ASN: n, Tier: tier}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, topology.TierOne)
	add(2, topology.TierOne)
	for _, n := range []topology.ASN{10, 11, 12, 13} {
		add(n, topology.TierTwo)
	}
	for _, n := range []topology.ASN{100, 101, 102} {
		add(n, topology.TierStub)
	}
	links := []struct {
		a, b topology.ASN
		rel  topology.Relationship
	}{
		{1, 2, topology.RelPeer},
		{1, 10, topology.RelCustomer}, {1, 11, topology.RelCustomer},
		{2, 12, topology.RelCustomer}, {2, 13, topology.RelCustomer},
		{10, 100, topology.RelCustomer},
		{11, 101, topology.RelCustomer}, {12, 101, topology.RelCustomer},
		{13, 102, topology.RelCustomer},
		{10, 12, topology.RelPeer},
	}
	for _, l := range links {
		if err := g.Link(l.a, l.b, l.rel); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// at returns the route as selects in res, the zero Route when it has none.
func at(res *Result, as topology.ASN) Route {
	r, _ := res.Route(as)
	return r
}

func TestPropagateCustomerInjectionReachesEveryone(t *testing.T) {
	g := testGraph(t)
	// Cloud buys transit from AS 10: injection is customer-class at 10.
	sel, err := PropagateResult(g, []Injection{{Neighbor: 10, Class: ClassCustomer, Ingress: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.ASNs() {
		r, ok := sel.Route(n)
		if !ok {
			t.Errorf("AS %v has no route; customer injection should reach all", n)
			continue
		}
		if r.Ingress != 1 {
			t.Errorf("AS %v ingress = %d, want 1", n, r.Ingress)
		}
	}
	// Route classes along the way:
	if at(sel, 10).Class != ClassCustomer || at(sel, 10).PathLen != 1 {
		t.Errorf("AS10 route = %+v, want customer/len1", at(sel, 10))
	}
	if at(sel, 1).Class != ClassCustomer {
		t.Errorf("AS1 (provider of 10) class = %v, want customer", at(sel, 1).Class)
	}
	if at(sel, 2).Class != ClassPeer {
		t.Errorf("AS2 (peer of 1) class = %v, want peer", at(sel, 2).Class)
	}
	if at(sel, 12).Class != ClassPeer { // 12 peers with 10
		t.Errorf("AS12 class = %v, want peer (via direct peering with 10)", at(sel, 12).Class)
	}
	if at(sel, 100).Class != ClassProvider {
		t.Errorf("AS100 class = %v, want provider", at(sel, 100).Class)
	}
}

func TestPropagatePeerInjectionStaysInCone(t *testing.T) {
	g := testGraph(t)
	// Cloud peers with AS 11 at some PoP: peer-class at 11; the route is
	// only exported to 11's customers.
	sel, err := PropagateResult(g, []Injection{{Neighbor: 11, Class: ClassPeer, Ingress: 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 2 {
		t.Fatalf("selected = %d entries (%v), want 2 (AS 11 and its customer 101)", sel.Len(), sel)
	}
	if r := at(sel, 11); r.Class != ClassPeer || r.Ingress != 5 {
		t.Errorf("AS11 route = %+v", r)
	}
	if r := at(sel, 101); r.Class != ClassProvider || r.PathLen != 2 {
		t.Errorf("AS101 route = %+v, want provider/len2", r)
	}
	if _, ok := sel.Route(1); ok {
		t.Error("AS1 should not hear a peer-class route from its customer's peer")
	}
}

func TestPropagatePrefersCustomerOverPeerOverProvider(t *testing.T) {
	g := testGraph(t)
	// AS 101 multihomes to 11 and 12. Inject:
	//   - customer-class at 13 (cloud transits via 13) → reaches 101 as
	//     provider-class after traveling 13→2→12→101 or 13→2→1→11→101.
	//   - peer-class at 12 → 101 hears provider-class len 2.
	// 101 should pick the shorter provider route via 12 (ingress 2).
	sel, err := PropagateResult(g, []Injection{
		{Neighbor: 13, Class: ClassCustomer, Ingress: 1},
		{Neighbor: 12, Class: ClassPeer, Ingress: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := at(sel, 101)
	if r.Ingress != 2 || r.PathLen != 2 {
		t.Errorf("AS101 picked %+v, want ingress 2 at len 2", r)
	}
	// AS 12 itself: peer route (class peer, len 1) vs provider route via 2
	// (class provider) → peer wins.
	if r := at(sel, 12); r.Ingress != 2 || r.Class != ClassPeer {
		t.Errorf("AS12 picked %+v, want peer-class ingress 2", r)
	}
	// AS 2: customer route via 13 only.
	if r := at(sel, 2); r.Ingress != 1 || r.Class != ClassCustomer {
		t.Errorf("AS2 picked %+v, want customer-class ingress 1", r)
	}
}

func TestPropagateShorterPathWinsWithinClass(t *testing.T) {
	g := testGraph(t)
	// Two customer-class injections: at 10 and at 2. AS 1 hears customer
	// routes from 10 (len 2) and from... 2 is 1's peer so that is peer
	// class. AS 100 (customer of 10) hears provider route via 10 (len 2).
	sel, err := PropagateResult(g, []Injection{
		{Neighbor: 10, Class: ClassCustomer, Ingress: 1},
		{Neighbor: 2, Class: ClassCustomer, Ingress: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := at(sel, 1); r.Ingress != 1 || r.Class != ClassCustomer || r.PathLen != 2 {
		t.Errorf("AS1 picked %+v, want customer ingress 1 len 2", r)
	}
	if r := at(sel, 100); r.Ingress != 1 || r.PathLen != 2 {
		t.Errorf("AS100 picked %+v, want ingress 1 len 2", r)
	}
	// AS 13 (customer of 2): provider route via 2 len 2 beats anything
	// longer.
	if r := at(sel, 13); r.Ingress != 2 || r.PathLen != 2 {
		t.Errorf("AS13 picked %+v, want ingress 2 len 2", r)
	}
}

func TestPropagateTieBreaker(t *testing.T) {
	g := testGraph(t)
	// 101 multihomes to 11 and 12; inject peer-class at both so 101 sees
	// two provider routes of equal length.
	inj := []Injection{
		{Neighbor: 11, Class: ClassPeer, Ingress: 7},
		{Neighbor: 12, Class: ClassPeer, Ingress: 3},
	}
	selDefault, err := PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Default tie-break: lowest ingress ID.
	if r := at(selDefault, 101); r.Ingress != 3 {
		t.Errorf("default tiebreak picked ingress %d, want 3", r.Ingress)
	}
	// Custom tie-break: highest ingress.
	selHigh, err := PropagateResult(g, inj, func(_ topology.ASN, cands []Route) int {
		best := 0
		for i, c := range cands {
			if c.Ingress > cands[best].Ingress {
				best = i
			}
		}
		return best
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := at(selHigh, 101); r.Ingress != 7 {
		t.Errorf("custom tiebreak picked ingress %d, want 7", r.Ingress)
	}
}

func TestPropagateDeterministic(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{Seed: 5, Tier1: 4, Tier2: 20, Stubs: 200,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3, EnterpriseFrac: 0.3, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	inj := []Injection{
		{Neighbor: 1000, Class: ClassCustomer, Ingress: 1},
		{Neighbor: 1001, Class: ClassPeer, Ingress: 2},
		{Neighbor: 1002, Class: ClassPeer, Ingress: 3},
	}
	a, err := PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("run sizes differ: %d vs %d", a.Len(), b.Len())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("selections differ across runs")
	}
}

func TestPropagateErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := PropagateResult(g, []Injection{{Neighbor: 999, Class: ClassPeer, Ingress: 1}}, nil); err == nil {
		t.Error("unknown neighbor should fail")
	}
	if _, err := PropagateResult(g, []Injection{{Neighbor: 10, Class: ClassPeer, Ingress: -2}}, nil); err == nil {
		t.Error("invalid ingress should fail")
	}
}

func TestPropagateNoValleys(t *testing.T) {
	// Property: in any selected route set, an AS with only a provider-
	// class route must have learned it from a neighbor that itself has a
	// route — and no route may be learned "up" from a peer/provider route.
	// We verify the classes are consistent with Via relationships.
	g, err := topology.Generate(topology.GenConfig{Seed: 9, Tier1: 4, Tier2: 25, Stubs: 300,
		MeanStubProviders: 2.5, Tier2PeerProb: 0.4, EnterpriseFrac: 0.3, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	inj := []Injection{
		{Neighbor: 1000, Class: ClassPeer, Ingress: 1},
		{Neighbor: 1005, Class: ClassCustomer, Ingress: 2},
		{Neighbor: 1010, Class: ClassPeer, Ingress: 3},
	}
	sel, err := PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	injured := map[topology.ASN]bool{1000: true, 1005: true, 1010: true}
	for _, n := range g.ASNs() {
		r, ok := sel.Route(n)
		if !ok {
			continue
		}
		if injured[n] && r.Via == n {
			continue // injection point
		}
		rel := g.Rel(n, r.Via)
		switch r.Class {
		case ClassCustomer:
			if rel != topology.RelCustomer {
				t.Errorf("AS %v claims customer route via %v but rel=%v", n, r.Via, rel)
			}
		case ClassPeer:
			if rel != topology.RelPeer {
				t.Errorf("AS %v claims peer route via %v but rel=%v", n, r.Via, rel)
			}
		case ClassProvider:
			if rel != topology.RelProvider {
				t.Errorf("AS %v claims provider route via %v but rel=%v", n, r.Via, rel)
			}
		}
		// Valley-free: the neighbor we learned from must itself have a
		// route, and if we learned from a peer or provider, that neighbor
		// must have had a customer route or be an injection point.
		vr, ok := sel.Route(r.Via)
		if !ok {
			t.Errorf("AS %v learned from %v which has no route", n, r.Via)
			continue
		}
		if r.Class == ClassPeer && !(vr.Class == ClassCustomer || (injured[r.Via] && vr.Via == r.Via)) {
			t.Errorf("AS %v peer route via %v whose class is %v (valley!)", n, r.Via, vr.Class)
		}
	}
}

func TestRouteBetter(t *testing.T) {
	cust := Route{Class: ClassCustomer, PathLen: 5}
	peerShort := Route{Class: ClassPeer, PathLen: 1}
	provShort := Route{Class: ClassProvider, PathLen: 1}
	if !cust.Better(peerShort) {
		t.Error("customer route must beat shorter peer route")
	}
	if !peerShort.Better(provShort) {
		t.Error("peer beats provider")
	}
	a := Route{Class: ClassPeer, PathLen: 2}
	b := Route{Class: ClassPeer, PathLen: 3}
	if !a.Better(b) || b.Better(a) {
		t.Error("shorter path wins within class")
	}
	if a.Better(a) {
		t.Error("route is not better than itself")
	}
}

func TestPropagatePrependShiftsSelection(t *testing.T) {
	g := testGraph(t)
	// Two customer-class injections at 10 and 13. Without prepending,
	// AS 1 prefers the shorter customer route via 10.
	plain := []Injection{
		{Neighbor: 10, Class: ClassCustomer, Ingress: 1},
		{Neighbor: 13, Class: ClassCustomer, Ingress: 2},
	}
	sel, err := PropagateResult(g, plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := at(sel, 1); r.Ingress != 1 {
		t.Fatalf("baseline: AS1 picked ingress %d, want 1", r.Ingress)
	}
	// Prepending 4 hops on the ingress-1 advertisement makes the route
	// via 13 (length 3 at AS 1: 13->2->1... wait, 2 is a peer of 1, so
	// the customer path to AS1 is only via 10) — use AS 100 instead,
	// whose provider routes compare by length: via 10 (len 1+4+1=6
	// prepended) vs via the chain from 13 (13->2 peer->... does not
	// reach 100 as customer route). Check AS 2: customer route via 13
	// len 2 vs peer route via 1. Prepend shifts AS 1's own choice once
	// the direct route is longer than an alternative customer path —
	// none exists here, so instead verify path lengths carry the
	// prepend.
	prepended := []Injection{
		{Neighbor: 10, Class: ClassCustomer, Ingress: 1, Prepend: 4},
		{Neighbor: 13, Class: ClassCustomer, Ingress: 2},
	}
	sel2, err := PropagateResult(g, prepended, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := at(sel2, 10); r.PathLen != 5 {
		t.Errorf("AS10 path length = %d, want 5 (1+4 prepend)", r.PathLen)
	}
	// AS 100 (customer of 10) still must use ingress 1 (only compliant
	// path) but sees the longer path.
	if r := at(sel2, 100); r.Ingress != 1 || r.PathLen != 6 {
		t.Errorf("AS100 = %+v, want ingress 1 at length 6", r)
	}
}

func TestPropagatePrependBreaksTieTowardUnprepended(t *testing.T) {
	g := testGraph(t)
	// AS 101 multihomes to 11 and 12; peer-class injections at both give
	// 101 two provider routes of equal length; prepending one side must
	// deterministically steer 101 to the other.
	inj := []Injection{
		{Neighbor: 11, Class: ClassPeer, Ingress: 7, Prepend: 2},
		{Neighbor: 12, Class: ClassPeer, Ingress: 3},
	}
	sel, err := PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := at(sel, 101); r.Ingress != 3 {
		t.Errorf("AS101 picked prepended ingress %d, want 3", r.Ingress)
	}
	// And the reverse.
	inj2 := []Injection{
		{Neighbor: 11, Class: ClassPeer, Ingress: 7},
		{Neighbor: 12, Class: ClassPeer, Ingress: 3, Prepend: 2},
	}
	sel2, err := PropagateResult(g, inj2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := at(sel2, 101); r.Ingress != 7 {
		t.Errorf("AS101 picked prepended ingress %d, want 7", r.Ingress)
	}
}

func TestPropagatePrependValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := PropagateResult(g, []Injection{{Neighbor: 10, Class: ClassPeer, Ingress: 1, Prepend: -1}}, nil); err == nil {
		t.Error("negative prepend should fail")
	}
	if _, err := PropagateResult(g, []Injection{{Neighbor: 10, Class: ClassPeer, Ingress: 1, Prepend: 17}}, nil); err == nil {
		t.Error("prepend > 16 should fail")
	}
}
