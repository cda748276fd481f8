package dnssim

import (
	"testing"

	"painter/internal/advertise"
	"painter/internal/cloud"
	"painter/internal/netsim"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

func testWorld(t *testing.T) (*netsim.World, *usergroup.Set) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 27, Tier1: 4, Tier2: 24, Stubs: 200,
		MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.4, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{Name: "t", PoPMetros: 12, PeerFrac: 0.8, TransitProviders: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := netsim.New(g, d, 17)
	if err != nil {
		t.Fatal(err)
	}
	ugs, err := usergroup.Build(g, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w, ugs
}

func TestSteerAssignsEveryUG(t *testing.T) {
	w, ugs := testWorld(t)
	cfg := advertise.OnePerPoP(w.Deploy, 6)
	latency, anycast, err := WorldLatencyFuncs(w, ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := Steer(ugs, cfg, latency, anycast)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != ugs.Len() {
		t.Fatalf("assigned %d of %d UGs", len(assign), ugs.Len())
	}
	for id, p := range assign {
		if p < -1 || p >= cfg.NumPrefixes() {
			t.Fatalf("UG %d assigned invalid prefix %d", id, p)
		}
	}
}

func TestResolverMembersShareAssignment(t *testing.T) {
	w, ugs := testWorld(t)
	cfg := advertise.OnePerPoP(w.Deploy, 6)
	latency, anycast, err := WorldLatencyFuncs(w, ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := Steer(ugs, cfg, latency, anycast)
	if err != nil {
		t.Fatal(err)
	}
	pub := make(map[usergroup.ResolverID]bool)
	for _, r := range ugs.Resolvers {
		pub[r.ID] = r.Public
	}
	perRes := make(map[usergroup.ResolverID]map[int]bool)
	for _, u := range ugs.UGs {
		if pub[u.Resolver] {
			continue // ECS resolvers steer per UG
		}
		if perRes[u.Resolver] == nil {
			perRes[u.Resolver] = make(map[int]bool)
		}
		perRes[u.Resolver][assign[u.ID]] = true
	}
	for rid, ps := range perRes {
		if len(ps) > 1 {
			t.Errorf("non-ECS resolver %d issued %d distinct prefixes, want 1", rid, len(ps))
		}
	}
}

func TestDNSSteeringLosesToPerFlow(t *testing.T) {
	// The §5.2.2 claim: per-resolver steering sacrifices a large part of
	// the benefit that per-flow steering captures.
	w, ugs := testWorld(t)
	cfg := advertise.OnePerPoP(w.Deploy, 8)
	latency, anycast, err := WorldLatencyFuncs(w, ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Per-flow (PAINTER) benefit: every UG takes its own best option.
	var perFlow float64
	for _, u := range ugs.UGs {
		base, ok := anycast(u)
		if !ok {
			continue
		}
		best := base
		for p := 0; p < cfg.NumPrefixes(); p++ {
			if ms, ok := latency(u, p); ok && ms < best {
				best = ms
			}
		}
		perFlow += u.Weight * (base - best)
	}

	assign, err := Steer(ugs, cfg, latency, anycast)
	if err != nil {
		t.Fatal(err)
	}
	dns := SteeredBenefit(ugs, assign, latency, anycast)

	if dns > perFlow+1e-9 {
		t.Fatalf("DNS steering (%.3f) cannot beat per-flow steering (%.3f)", dns, perFlow)
	}
	if perFlow > 0 && dns/perFlow > 0.9 {
		t.Errorf("DNS retains %.0f%% of per-flow benefit; expected a visible sacrifice (paper: ~50%%)",
			100*dns/perFlow)
	}
	if dns < 0 {
		t.Errorf("DNS steering benefit %.3f negative; Steer should fall back to anycast when hurtful", dns)
	}
}

func TestSteeredBenefitAnycastAssignmentIsZero(t *testing.T) {
	w, ugs := testWorld(t)
	cfg := advertise.OnePerPoP(w.Deploy, 4)
	latency, anycast, err := WorldLatencyFuncs(w, ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assign := make(SteeringAssignment)
	for _, u := range ugs.UGs {
		assign[u.ID] = -1
	}
	if b := SteeredBenefit(ugs, assign, latency, anycast); b != 0 {
		t.Errorf("all-anycast assignment benefit = %v, want 0", b)
	}
}
