package topology

import (
	"testing"
)

func TestInferRecoversSimpleHierarchy(t *testing.T) {
	// Paths through a clear hierarchy: stubs -> tier2 -> tier1 -> tier2 -> stubs.
	// Degrees: 1 is the hub.
	paths := [][]ASN{
		{100, 10, 1, 11, 101},
		{100, 10, 1, 12, 102},
		{101, 11, 1, 10, 100},
		{102, 12, 1, 11, 101},
		{100, 10, 1, 12, 102},
		{101, 11, 1, 12, 102},
	}
	rels := InferRelationships(paths)
	rm := make(map[[2]ASN]Relationship)
	for _, r := range rels {
		rm[[2]ASN{r.A, r.B}] = r.Rel
	}
	// 1 is the provider of 10, 11, 12 (link stored lo=1).
	for _, c := range []ASN{10, 11, 12} {
		if got := rm[[2]ASN{1, c}]; got != RelCustomer {
			t.Errorf("rel(1,%v) = %v, want customer (1 is provider)", c, got)
		}
	}
	// Stubs are customers of their tier-2s (lo=tier2).
	if got := rm[[2]ASN{10, 100}]; got != RelCustomer {
		t.Errorf("rel(10,100) = %v, want customer", got)
	}
}

func TestInferHandlesPrepending(t *testing.T) {
	paths := [][]ASN{
		{100, 100, 100, 10, 1, 11, 101},
		{101, 11, 1, 1, 10, 100},
	}
	rels := InferRelationships(paths)
	if len(rels) == 0 {
		t.Fatal("no relationships inferred")
	}
	for _, r := range rels {
		if r.A == r.B {
			t.Errorf("self relationship %v inferred from prepending", r.A)
		}
	}
}

func TestInferOnGeneratedTopology(t *testing.T) {
	g, err := Generate(GenConfig{Seed: 11, Tier1: 4, Tier2: 25, Stubs: 200,
		MeanStubProviders: 2.2, Tier2PeerProb: 0.3, EnterpriseFrac: 0.4, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Generate valley-free paths: stub -> provider chain up -> (peer) -> down.
	var paths [][]ASN
	for _, n := range g.ASNs() {
		a := g.AS(n)
		if a.Tier != TierStub {
			continue
		}
		for _, p := range a.Providers {
			pAS := g.AS(p)
			for _, pp := range pAS.Providers {
				// Path up: stub -> t2 -> t1, and reverse down into other branches.
				for _, c := range g.AS(pp).Customers {
					if c == p {
						continue
					}
					for _, cc := range g.AS(c).Customers {
						paths = append(paths, []ASN{n, p, pp, c, cc})
						if len(paths) > 4000 {
							break
						}
					}
				}
			}
		}
	}
	if len(paths) < 100 {
		t.Fatalf("too few synthetic paths: %d", len(paths))
	}
	rels := InferRelationships(paths)
	acc := InferAccuracy(g, rels)
	if acc < 0.85 {
		t.Errorf("inference accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestBuildFromInferred(t *testing.T) {
	rels := []InferredRel{
		{A: 1, B: 10, Rel: RelCustomer},
		{A: 1, B: 11, Rel: RelCustomer},
		{A: 10, B: 100, Rel: RelCustomer},
		{A: 10, B: 11, Rel: RelPeer},
	}
	g, err := BuildFromInferred(rels)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if g.AS(1).Tier != TierOne {
		t.Errorf("AS1 tier = %v, want tier-1 (no providers, has customers)", g.AS(1).Tier)
	}
	if g.AS(10).Tier != TierTwo {
		t.Errorf("AS10 tier = %v, want tier-2", g.AS(10).Tier)
	}
	if g.AS(100).Tier != TierStub {
		t.Errorf("AS100 tier = %v, want stub", g.AS(100).Tier)
	}
	if !g.customerCone(1)[100] {
		t.Error("cone(1) should include 100 via inferred links")
	}
}

func TestInferAccuracyIgnoresUnknownLinks(t *testing.T) {
	g := tinyGraph(t)
	rels := []InferredRel{
		{A: 1, B: 10, Rel: RelCustomer},    // correct
		{A: 1, B: 2, Rel: RelPeer},         // correct
		{A: 10, B: 11, Rel: RelPeer},       // link not in truth: ignored
		{A: 2, B: 12, Rel: RelPeer},        // wrong (truth: customer)
		{A: 500, B: 501, Rel: RelProvider}, // unknown ASes: ignored
	}
	acc := InferAccuracy(g, rels)
	want := 2.0 / 3.0
	if acc < want-1e-9 || acc > want+1e-9 {
		t.Errorf("accuracy = %v, want %v", acc, want)
	}
}
