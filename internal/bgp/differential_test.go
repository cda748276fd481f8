package bgp_test

// Differential tests: the dense settle-loop Propagate must select
// exactly the same route as the retained map-based PropagateReference
// for every AS, across random topologies, random injection sets (all
// three classes, with prepends), and several tie-breakers — including
// the netsim world's hidden-preference tie-breaker the evaluation runs
// under.

import (
	"math/rand"
	"testing"

	"painter/internal/bgp"
	"painter/internal/experiments"
	"painter/internal/topology"
)

// hashTB is a deterministic but "adversarial" tie-breaker: it ranks
// candidates by a seeded hash of (AS, ingress, via), so any divergence
// in candidate sets or ordering between the two engines shows up as a
// different selection.
func hashTB(seed uint64) bgp.TieBreaker {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	return func(as topology.ASN, cands []bgp.Route) int {
		best, bestH := 0, uint64(0)
		for i, c := range cands {
			h := mix(seed ^ uint64(as)<<32 ^ uint64(c.Ingress)<<8 ^ uint64(c.Via))
			if i == 0 || h < bestH {
				best, bestH = i, h
			}
		}
		return best
	}
}

// randomInjections draws an injection set over the graph's ASes with all
// three classes represented and prepends in [0,3].
func randomInjections(rng *rand.Rand, asns []topology.ASN, n int) []bgp.Injection {
	inj := make([]bgp.Injection, 0, n)
	for i := 0; i < n; i++ {
		class := bgp.RouteClass(i % 3) // customer, peer, provider — all classes
		inj = append(inj, bgp.Injection{
			Neighbor: asns[rng.Intn(len(asns))],
			Class:    class,
			Ingress:  bgp.IngressID(i),
			Prepend:  rng.Intn(4),
		})
	}
	// Duplicate one neighbor under a different ingress to exercise
	// multi-candidate buckets at the injection point itself.
	if n >= 2 {
		inj = append(inj, bgp.Injection{
			Neighbor: inj[0].Neighbor,
			Class:    inj[0].Class,
			Ingress:  bgp.IngressID(n),
			Prepend:  inj[0].Prepend,
		})
	}
	return inj
}

func assertSameSelection(t *testing.T, g *topology.Graph, inj []bgp.Injection, tb bgp.TieBreaker, label string) {
	t.Helper()
	dense, err := bgp.PropagateResult(g, inj, tb)
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	ref, err := bgp.PropagateReference(g, inj, tb)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if dense.Len() != len(ref) {
		t.Fatalf("%s: dense settled %d ASes, reference %d", label, dense.Len(), len(ref))
	}
	for as, rr := range ref {
		dr, ok := dense.Route(as)
		if !ok {
			t.Fatalf("%s: AS %v settled by reference but not dense", label, as)
		}
		if dr != rr {
			t.Fatalf("%s: AS %v selected %+v (dense) vs %+v (reference)", label, as, dr, rr)
		}
	}
}

// TestPropagateMatchesReferenceRandom sweeps ≥20 seeded random
// topologies × injection sets under both the deterministic default and
// the adversarial hash tie-breaker.
func TestPropagateMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := topology.GenConfig{
			Seed: seed, Tier1: 4, Tier2: 16 + int(seed), Stubs: 120,
			MeanStubProviders: 2.2, Tier2PeerProb: 0.3,
			EnterpriseFrac: 0.3, ContentFrac: 0.05,
		}
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(trial)))
			inj := randomInjections(rng, asns, 6+trial*5)
			label := "seed" + string(rune('0'+seed)) + "/trial" + string(rune('0'+trial))
			assertSameSelection(t, g, inj, nil, label+"/min-ingress")
			assertSameSelection(t, g, inj, hashTB(uint64(seed)<<8|uint64(trial)), label+"/hash")
		}
	}
}

// TestPropagateMatchesReferenceNetsimTieBreaker runs the comparison
// under real evaluation conditions: generated deployments and the
// world's hidden-preference tie-breaker (the one every figure
// reproduction resolves routes with).
func TestPropagateMatchesReferenceNetsimTieBreaker(t *testing.T) {
	for _, seed := range []int64{7, 21, 42} {
		env, err := experiments.NewEnv(experiments.ScaleSmall, seed)
		if err != nil {
			t.Fatal(err)
		}
		all := env.Deploy.AllPeeringIDs()
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			// Random non-empty peering subset, including the full set.
			subset := make([]bgp.IngressID, 0, len(all))
			for _, id := range all {
				if trial == 0 || rng.Intn(3) > 0 {
					subset = append(subset, id)
				}
			}
			if len(subset) == 0 {
				subset = all[:1]
			}
			inj, err := env.Deploy.Injections(subset)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSelection(t, env.Graph, inj, env.World.TieBreaker(), "netsim")
		}
	}
}
