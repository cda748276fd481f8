package topology

import (
	"testing"
)

// tinyGraph builds a small hand-crafted topology:
//
//	    1 ---peer--- 2        (tier-1)
//	   / \          / \
//	10    11     12    13     (tier-2, customers of tier-1s)
//	 |     \     /      |
//	100     101        102    (stubs; 101 multihomed to 11 and 12)
func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	add := func(n ASN, tier Tier) {
		if err := g.AddAS(&AS{ASN: n, Tier: tier, Kind: KindTransit}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, TierOne)
	add(2, TierOne)
	for _, n := range []ASN{10, 11, 12, 13} {
		add(n, TierTwo)
	}
	for _, n := range []ASN{100, 101, 102} {
		add(n, TierStub)
	}
	links := []struct {
		a, b ASN
		rel  Relationship
	}{
		{1, 2, RelPeer},
		{1, 10, RelCustomer}, {1, 11, RelCustomer},
		{2, 12, RelCustomer}, {2, 13, RelCustomer},
		{10, 100, RelCustomer},
		{11, 101, RelCustomer}, {12, 101, RelCustomer},
		{13, 102, RelCustomer},
	}
	for _, l := range links {
		if err := g.Link(l.a, l.b, l.rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLinkSymmetry(t *testing.T) {
	g := tinyGraph(t)
	if g.Rel(1, 10) != RelCustomer {
		t.Errorf("Rel(1,10) = %v, want customer", g.Rel(1, 10))
	}
	if g.Rel(10, 1) != RelProvider {
		t.Errorf("Rel(10,1) = %v, want provider", g.Rel(10, 1))
	}
	if g.Rel(1, 2) != RelPeer || g.Rel(2, 1) != RelPeer {
		t.Error("peer link must be symmetric")
	}
	if g.Rel(1, 100) != RelNone {
		t.Error("non-adjacent ASes must have RelNone")
	}
}

func TestLinkErrors(t *testing.T) {
	g := tinyGraph(t)
	if err := g.Link(1, 1, RelPeer); err == nil {
		t.Error("self link should fail")
	}
	if err := g.Link(1, 2, RelPeer); err == nil {
		t.Error("duplicate link should fail")
	}
	if err := g.Link(1, 9999, RelPeer); err == nil {
		t.Error("link to unknown AS should fail")
	}
	if err := g.AddAS(&AS{ASN: 1}); err == nil {
		t.Error("duplicate AddAS should fail")
	}
	if err := g.AddAS(nil); err == nil {
		t.Error("nil AddAS should fail")
	}
}

func TestCustomerCone(t *testing.T) {
	g := tinyGraph(t)
	cone1 := g.customerCone(1)
	for _, n := range []ASN{1, 10, 11, 100, 101} {
		if !cone1[n] {
			t.Errorf("cone(1) missing %v", n)
		}
	}
	for _, n := range []ASN{2, 12, 13, 102} {
		if cone1[n] {
			t.Errorf("cone(1) wrongly contains %v (peers/their customers)", n)
		}
	}
	// Multihomed stub is in both tier-2 cones.
	if !g.customerCone(11)[101] || !g.customerCone(12)[101] {
		t.Error("multihomed stub 101 should be in cones of both providers")
	}
	if g.ConeSize(100) != 1 {
		t.Errorf("stub cone size = %d, want 1", g.ConeSize(100))
	}
	if len(g.customerCone(555)) != 0 {
		t.Error("cone of unknown AS should be empty")
	}
}

func TestInCone(t *testing.T) {
	g := tinyGraph(t)
	cases := []struct {
		root, member ASN
		want         bool
	}{
		{1, 101, true},
		{2, 101, true},
		{1, 102, false},
		{10, 100, true},
		{10, 101, false},
		{100, 100, true},
	}
	for _, c := range cases {
		if got := g.InCone(c.root, c.member); got != c.want {
			t.Errorf("InCone(%v,%v) = %v, want %v", c.root, c.member, got, c.want)
		}
	}
}

func TestInConeMatchesCustomerCone(t *testing.T) {
	g, err := Generate(GenConfig{Seed: 3, Tier1: 4, Tier2: 20, Stubs: 150,
		MeanStubProviders: 2, Tier2PeerProb: 0.3, EnterpriseFrac: 0.4, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	asns := g.ASNs()
	for _, root := range asns[:10] {
		cone := g.customerCone(root)
		for _, m := range asns {
			if got := g.InCone(root, m); got != cone[m] {
				t.Fatalf("InCone(%v,%v)=%v disagrees with CustomerCone=%v", root, m, got, cone[m])
			}
		}
	}
}

func TestValidateDetectsProviderCycle(t *testing.T) {
	g := NewGraph()
	for _, n := range []ASN{1, 2, 3} {
		if err := g.AddAS(&AS{ASN: n, Tier: TierTwo}); err != nil {
			t.Fatal(err)
		}
	}
	// 1 -> 2 -> 3 -> 1 provider cycle (each is customer of the next).
	if err := g.Link(2, 1, RelCustomer); err != nil { // 1 customer of 2
		t.Fatal(err)
	}
	if err := g.Link(3, 2, RelCustomer); err != nil {
		t.Fatal(err)
	}
	if err := g.Link(1, 3, RelCustomer); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate should detect provider cycle")
	}
}

func TestRelationshipInvert(t *testing.T) {
	if RelCustomer.invert() != RelProvider || RelProvider.invert() != RelCustomer {
		t.Error("customer/provider must invert to each other")
	}
	if RelPeer.invert() != RelPeer || RelNone.invert() != RelNone {
		t.Error("peer/none invert to themselves")
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := GenConfig{Seed: 7, Tier1: 5, Tier2: 30, Stubs: 300,
		MeanStubProviders: 2.4, Tier2PeerProb: 0.3, EnterpriseFrac: 0.35, ContentFrac: 0.05}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Tier1 != 5 || st.Tier2 != 30 || st.Stubs != 300 {
		t.Errorf("tier counts = %d/%d/%d, want 5/30/300", st.Tier1, st.Tier2, st.Stubs)
	}
	// Tier-1 full mesh.
	for i := ASN(1); i <= 5; i++ {
		for j := i + 1; j <= 5; j++ {
			if g.Rel(i, j) != RelPeer {
				t.Errorf("tier-1 %v and %v must peer", i, j)
			}
		}
	}
	// Every stub has at least one provider and presence somewhere.
	for _, n := range g.ASNs() {
		a := g.AS(n)
		if a.Tier == TierStub {
			if len(a.Providers) == 0 {
				t.Errorf("stub %v has no providers", n)
			}
			if len(a.Metros) == 0 {
				t.Errorf("stub %v has no metro presence", n)
			}
		}
		if a.Tier == TierTwo && len(a.Providers) == 0 {
			t.Errorf("tier-2 %v has no tier-1 provider", n)
		}
	}
	// Tier-1 cones should be large (they transit much of the graph).
	cone := g.ConeSize(1)
	if cone < 30 {
		t.Errorf("tier-1 cone size = %d, unexpectedly small", cone)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 1, Tier1: 12, Tier2: 15, Stubs: 100, MeanStubProviders: 2.4,
		Tier2PeerProb: 0.35, EnterpriseFrac: 0.35, ContentFrac: 0.05}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for _, n := range a.ASNs() {
		aa, ba := a.AS(n), b.AS(n)
		if ba == nil {
			t.Fatalf("AS %v missing in second graph", n)
		}
		if len(aa.Providers) != len(ba.Providers) || len(aa.Peers) != len(ba.Peers) {
			t.Fatalf("AS %v adjacency differs between runs", n)
		}
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	bad := []GenConfig{
		{Tier1: 1, Tier2: 5, Stubs: 5, MeanStubProviders: 2},
		{Tier1: 3, Tier2: 1, Stubs: 5, MeanStubProviders: 2},
		{Tier1: 3, Tier2: 5, Stubs: 0, MeanStubProviders: 2},
		{Tier1: 3, Tier2: 5, Stubs: 5, MeanStubProviders: 0.5},
		{Tier1: 3, Tier2: 5, Stubs: 5, MeanStubProviders: 2, EnterpriseFrac: 0.9, ContentFrac: 0.3},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestASPresence(t *testing.T) {
	a := AS{Metros: []string{"ams", "lon", "nyc"}}
	if !a.PresentIn("lon") || a.PresentIn("tyo") {
		t.Error("PresentIn wrong")
	}
}

func TestStats(t *testing.T) {
	g := tinyGraph(t)
	st := g.Stats()
	if st.ASes != 9 {
		t.Errorf("ASes = %d, want 9", st.ASes)
	}
	if st.CustomerLinks != 8 {
		t.Errorf("CustomerLinks = %d, want 8", st.CustomerLinks)
	}
	if st.PeerLinks != 1 {
		t.Errorf("PeerLinks = %d, want 1", st.PeerLinks)
	}
	if st.MaxConeSize != 5 {
		t.Errorf("MaxConeSize = %d, want 5", st.MaxConeSize)
	}
}
