package cloud

import (
	"testing"

	"painter/internal/bgp"
	"painter/internal/geo"
	"painter/internal/topology"
)

func testGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 12, Tier1: 5, Tier2: 30, Stubs: 200,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3, EnterpriseFrac: 0.35, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildProfiles(t *testing.T) {
	g := testGraph(t)
	for _, prof := range []Profile{
		{Name: "small", PoPMetros: 8, PeerFrac: 0.7, TransitProviders: 2, Seed: 1},
		PEERINGProfile(),
	} {
		d, err := Build(g, 64500, prof)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		st := d.Stats()
		if st.PoPs == 0 || st.Peerings == 0 {
			t.Fatalf("%s: empty deployment %+v", prof.Name, st)
		}
		if st.PoPs > prof.PoPMetros {
			t.Errorf("%s: %d PoPs exceeds requested %d", prof.Name, st.PoPs, prof.PoPMetros)
		}
		if st.Transit == 0 {
			t.Errorf("%s: no transit peerings", prof.Name)
		}
		// Transit providers reach everywhere: transit peerings should be
		// spread across many PoPs.
		if st.Transit < st.PoPs/2 {
			t.Errorf("%s: only %d transit peerings for %d PoPs", prof.Name, st.Transit, st.PoPs)
		}
	}
}

func TestDeploymentIndexes(t *testing.T) {
	g := testGraph(t)
	d, err := Build(g, 64500, Profile{Name: "t", PoPMetros: 10, PeerFrac: 0.8, TransitProviders: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range d.Peerings {
		pop, err := d.PoPOfPeering(pr.ID)
		if err != nil {
			t.Fatal(err)
		}
		if pop.ID != pr.PoP {
			t.Errorf("PoPOfPeering(%d) = %d, want %d", pr.ID, pop.ID, pr.PoP)
		}
		// Peer AS must actually be present at the PoP's metro.
		if !g.AS(pr.PeerASN).PresentIn(pop.Metro) {
			t.Errorf("peer %v not present in PoP metro %s", pr.PeerASN, pop.Metro)
		}
	}
	// PeeringsAt partitions AllPeeringIDs.
	total := 0
	for _, pop := range d.PoPs {
		ids := d.PeeringsAt(pop.ID)
		total += len(ids)
		for _, id := range ids {
			if d.Peering(id).PoP != pop.ID {
				t.Error("PeeringsAt bucket wrong")
			}
		}
	}
	if total != len(d.AllPeeringIDs()) {
		t.Errorf("PeeringsAt covers %d, want %d", total, len(d.AllPeeringIDs()))
	}
	if _, err := d.PoPOfPeering(9999); err == nil {
		t.Error("unknown peering should fail")
	}
}

func TestInjections(t *testing.T) {
	g := testGraph(t)
	d, err := Build(g, 64500, Profile{Name: "t", PoPMetros: 10, PeerFrac: 0.8, TransitProviders: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := d.AllPeeringIDs()[:5]
	inj, err := d.Injections(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj) != 5 {
		t.Fatalf("injections = %d, want 5", len(inj))
	}
	for i, in := range inj {
		pr := d.Peering(ids[i])
		if in.Neighbor != pr.PeerASN || in.Ingress != pr.ID || in.Class != pr.ClassAtPeer {
			t.Errorf("injection %d = %+v does not match peering %+v", i, in, pr)
		}
	}
	if _, err := d.Injections([]bgp.IngressID{99999}); err == nil {
		t.Error("unknown peering should fail")
	}
}

func TestTransitPeeringIDs(t *testing.T) {
	g := testGraph(t)
	d, err := Build(g, 64500, Profile{Name: "t", PoPMetros: 10, PeerFrac: 0.8, TransitProviders: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	transit := 0
	for _, id := range d.AllPeeringIDs() {
		if d.Peering(id).IsTransit() {
			transit++
		}
	}
	if transit == 0 {
		t.Fatal("no transit peerings")
	}
}

func TestNewValidation(t *testing.T) {
	pops := []PoP{{ID: 1, Metro: "nyc"}}
	if _, err := New(1, pops, []Peering{{ID: 1, PoP: 2, ClassAtPeer: bgp.ClassPeer}}); err == nil {
		t.Error("peering with unknown PoP should fail")
	}
	if _, err := New(1, []PoP{{ID: 1}, {ID: 1}}, nil); err == nil {
		t.Error("duplicate PoP id should fail")
	}
	if _, err := New(1, pops, []Peering{
		{ID: 1, PoP: 1, ClassAtPeer: bgp.ClassPeer},
		{ID: 1, PoP: 1, ClassAtPeer: bgp.ClassPeer},
	}); err == nil {
		t.Error("duplicate peering id should fail")
	}
	if _, err := New(1, pops, []Peering{{ID: 1, PoP: 1, ClassAtPeer: bgp.ClassProvider}}); err == nil {
		t.Error("provider-class peering should fail (cloud sells transit to no one here)")
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := testGraph(t)
	prof := Profile{Name: "t", PoPMetros: 10, PeerFrac: 0.8, TransitProviders: 2, Seed: 3}
	a, err := Build(g, 64500, prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, 64500, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Peerings) != len(b.Peerings) || len(a.PoPs) != len(b.PoPs) {
		t.Fatal("deployment differs across builds")
	}
	for i := range a.Peerings {
		if a.Peerings[i] != b.Peerings[i] {
			t.Fatal("peering differs across builds")
		}
	}
}

func TestNewFillsPoPCoordinates(t *testing.T) {
	d, err := New(1, []PoP{{ID: 0, Metro: "nyc"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := geo.MetroByCode("nyc")
	if d.PoP(0).Coord != m.Coord {
		t.Errorf("coord = %v, want %v", d.PoP(0).Coord, m.Coord)
	}
	// Unknown metro with zero coord is rejected.
	if _, err := New(1, []PoP{{ID: 0, Metro: "zzz"}}, nil); err == nil {
		t.Error("unknown metro with zero coord should fail")
	}
	// Explicit coords are preserved.
	c := geo.Coord{Lat: 1, Lon: 2}
	d, err = New(1, []PoP{{ID: 0, Metro: "custom", Coord: c}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.PoP(0).Coord != c {
		t.Error("explicit coord overwritten")
	}
}
