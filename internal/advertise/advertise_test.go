package advertise

import (
	"encoding/json"
	"testing"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/topology"
)

func testDeploy(t *testing.T) *cloud.Deployment {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 8, Tier1: 4, Tier2: 25, Stubs: 150,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3, EnterpriseFrac: 0.35, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{Name: "t", PoPMetros: 10, PeerFrac: 0.8, TransitProviders: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAnycastEmpty pins the anycast strategy's configuration as the zero
// Config: only the implicit anycast prefix, nothing advertised.
func TestAnycastEmpty(t *testing.T) {
	var c Config
	if c.NumPrefixes() != 0 || c.TotalAdvertisements() != 0 {
		t.Error("anycast config must be empty")
	}
}

func TestOnePerPeering(t *testing.T) {
	d := testDeploy(t)
	all := len(d.AllPeeringIDs())
	c := OnePerPeering(d, 5)
	if c.NumPrefixes() != 5 {
		t.Fatalf("prefixes = %d, want 5", c.NumPrefixes())
	}
	seen := map[bgp.IngressID]bool{}
	pops := map[cloud.PoPID]bool{}
	for _, s := range c.Prefixes {
		if len(s) != 1 {
			t.Fatalf("one-per-peering prefix has %d peerings", len(s))
		}
		if seen[s[0]] {
			t.Fatalf("peering %d reused", s[0])
		}
		seen[s[0]] = true
		pops[d.Peering(s[0]).PoP] = true
	}
	// Round-robin should touch multiple PoPs even at small budget.
	if len(pops) < 2 {
		t.Error("small budget should still cover multiple PoPs (round robin)")
	}
	// Over-budget clamps.
	c = OnePerPeering(d, all+100)
	if c.NumPrefixes() != all {
		t.Errorf("over-budget = %d prefixes, want %d", c.NumPrefixes(), all)
	}
	if err := c.Validate(d); err != nil {
		t.Error(err)
	}
}

func TestOnePerPoP(t *testing.T) {
	d := testDeploy(t)
	c := OnePerPoP(d, 3)
	if c.NumPrefixes() != 3 {
		t.Fatalf("prefixes = %d, want 3", c.NumPrefixes())
	}
	for _, s := range c.Prefixes {
		// All peerings in one prefix must share a PoP and cover it fully.
		pop := d.Peering(s[0]).PoP
		for _, id := range s {
			if d.Peering(id).PoP != pop {
				t.Fatal("one-per-pop prefix spans PoPs")
			}
		}
		if len(s) != len(d.PeeringsAt(pop)) {
			t.Errorf("prefix covers %d of %d peerings at PoP %d", len(s), len(d.PeeringsAt(pop)), pop)
		}
	}
	if err := c.Validate(d); err != nil {
		t.Error(err)
	}
	full := OnePerPoP(d, 10000)
	if full.NumPrefixes() != len(d.PoPs) {
		t.Errorf("full one-per-pop = %d prefixes, want %d", full.NumPrefixes(), len(d.PoPs))
	}
}

func TestOnePerPoPWithReuse(t *testing.T) {
	d := testDeploy(t)
	const reuseKm = 3000
	c := OnePerPoPWithReuse(d, 10000, reuseKm)
	full := OnePerPoP(d, 10000)
	if c.NumPrefixes() > full.NumPrefixes() {
		t.Errorf("reuse uses %d prefixes, plain uses %d — reuse must not use more",
			c.NumPrefixes(), full.NumPrefixes())
	}
	// Same total advertisements as plain (all PoP peerings covered).
	if c.TotalAdvertisements() != full.TotalAdvertisements() {
		t.Errorf("reuse covers %d advertisements, plain %d",
			c.TotalAdvertisements(), full.TotalAdvertisements())
	}
	// Every pair of PoPs sharing a prefix must be >= reuseKm apart.
	for _, s := range c.Prefixes {
		popSet := map[cloud.PoPID]bool{}
		for _, id := range s {
			popSet[d.Peering(id).PoP] = true
		}
		var pops []cloud.PoPID
		for p := range popSet {
			pops = append(pops, p)
		}
		for i := 0; i < len(pops); i++ {
			for j := i + 1; j < len(pops); j++ {
				a, b := d.PoP(pops[i]), d.PoP(pops[j])
				if dist := geo.DistanceKm(a.Coord, b.Coord); dist < reuseKm {
					t.Errorf("PoPs %s and %s share a prefix but are %.0f km apart (< %d)",
						a.Metro, b.Metro, dist, reuseKm)
				}
			}
		}
	}
	if err := c.Validate(d); err != nil {
		t.Error(err)
	}
}

func TestRegional(t *testing.T) {
	d := testDeploy(t)
	c := Regional(d)
	if c.NumPrefixes() == 0 {
		t.Fatal("regional produced no prefixes")
	}
	for _, s := range c.Prefixes {
		var region geo.Region
		for i, id := range s {
			pr := d.Peering(id)
			if !pr.IsTransit() {
				t.Error("regional must advertise only to transit providers")
			}
			m, err := geo.MetroByCode(d.PoP(pr.PoP).Metro)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				region = m.Region
			} else if m.Region != region {
				t.Error("regional prefix spans regions")
			}
		}
	}
	if err := c.Validate(d); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	d := testDeploy(t)
	ok := Config{Prefixes: [][]bgp.IngressID{{0, 1}}}
	if err := ok.Validate(d); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Prefixes: [][]bgp.IngressID{{}}},      // empty prefix
		{Prefixes: [][]bgp.IngressID{{99999}}}, // unknown peering
		{Prefixes: [][]bgp.IngressID{{0, 0}}},  // duplicate
	}
	for i, c := range bad {
		if err := c.Validate(d); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigClone(t *testing.T) {
	c := Config{Prefixes: [][]bgp.IngressID{{1, 2}, {3}}}
	cl := c.Clone()
	cl.Prefixes[0][0] = 99
	if c.Prefixes[0][0] != 1 {
		t.Error("Clone is shallow")
	}
	if c.TotalAdvertisements() != 3 {
		t.Errorf("TotalAdvertisements = %d, want 3", c.TotalAdvertisements())
	}
}

func TestConfigMarshalJSON(t *testing.T) {
	c := Config{Prefixes: [][]bgp.IngressID{{0, 2}, {1}}}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"version":1,"prefixes":[[0,2],[1]]}`; string(b) != want {
		t.Errorf("Marshal = %s, want %s", b, want)
	}
}
