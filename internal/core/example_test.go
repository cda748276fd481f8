package core_test

import (
	"fmt"

	"painter/internal/advertise"
	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/netsim"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// Example runs the Advertisement Orchestrator end to end on a small
// simulated world: generate an Internet, place a deployment, solve for
// a 6-prefix configuration over three advertise → measure → learn
// iterations, and evaluate it against ground truth and the One-per-PoP
// baseline at the same budget.
func Example() {
	// A synthetic Internet: tiered AS graph with geography.
	graph, err := topology.Generate(topology.GenConfig{
		Seed: 42, Tier1: 5, Tier2: 30, Stubs: 400,
		MeanStubProviders: 2.4, Tier2PeerProb: 0.35,
		EnterpriseFrac: 0.4, ContentFrac: 0.05,
	})
	if err != nil {
		panic(err)
	}
	// The cloud's footprint: PoPs in the busiest metros, peerings with
	// the transit networks present there.
	deploy, err := cloud.Build(graph, 64500, cloud.Profile{
		Name: "example", PoPMetros: 12, PeerFrac: 0.7, TransitProviders: 2, Seed: 43,
	})
	if err != nil {
		panic(err)
	}
	st := deploy.Stats()
	fmt.Printf("deployment: %d PoPs, %d peerings (%d transit)\n", st.PoPs, st.Peerings, st.Transit)

	// The world (routing policy, hidden preferences, latency) and user
	// groups with Zipf traffic weights.
	world, err := netsim.New(graph, deploy, 44)
	if err != nil {
		panic(err)
	}
	ugs, err := usergroup.Build(graph, usergroup.DefaultConfig())
	if err != nil {
		panic(err)
	}
	inputs, covered, err := core.SimInputs(world, ugs, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("user groups: %d (anycast-reachable)\n", covered.Len())

	params := core.DefaultParams(6) // 6 prefixes, D_reuse 3000 km
	params.MaxIterations = 3
	orch, err := core.New(inputs, core.NewWorldExecutor(world, covered, 0.5, 45), params)
	if err != nil {
		panic(err)
	}
	cfg, err := orch.Solve()
	if err != nil {
		panic(err)
	}
	fmt.Printf("chosen configuration: %d prefixes, %d (peering,prefix) advertisements\n",
		cfg.NumPrefixes(), cfg.TotalAdvertisements())
	for _, rep := range orch.Reports() {
		fmt.Printf("iteration %d: realized %.2f ms weighted benefit, %d new preference facts\n",
			rep.Iteration, rep.RealizedBenefit, rep.FactsLearned)
	}

	painter, err := core.Evaluate(world, covered, cfg)
	if err != nil {
		panic(err)
	}
	perPoP, err := core.Evaluate(world, covered, advertise.OnePerPoP(deploy, 6))
	if err != nil {
		panic(err)
	}
	fmt.Printf("PAINTER: %.2f ms weighted benefit (%.0f%% of possible), %d UGs improved\n",
		painter.Benefit, 100*painter.FractionOfPossible(), painter.ImprovedUGs)
	fmt.Printf("One-per-PoP: %.2f ms weighted benefit (%.0f%% of possible)\n",
		perPoP.Benefit, 100*perPoP.FractionOfPossible())
	// Output:
	// deployment: 12 PoPs, 62 peerings (21 transit)
	// user groups: 456 (anycast-reachable)
	// chosen configuration: 6 prefixes, 42 (peering,prefix) advertisements
	// iteration 1: realized 35.57 ms weighted benefit, 9446 new preference facts
	// iteration 2: realized 37.22 ms weighted benefit, 7787 new preference facts
	// iteration 3: realized 36.60 ms weighted benefit, 7927 new preference facts
	// PAINTER: 37.37 ms weighted benefit (94% of possible), 348 UGs improved
	// One-per-PoP: 19.07 ms weighted benefit (48% of possible)
}
