package bgp_test

import (
	"testing"

	"painter/internal/bgp"
	"painter/internal/experiments"
)

// propagateBenchInputs returns the small-scale environment's graph, its
// full peering set as injections, and the world's tie-breaker.
func propagateBenchInputs(b *testing.B) (*experiments.Env, []bgp.Injection, bgp.TieBreaker) {
	b.Helper()
	env, err := experiments.NewEnv(experiments.ScaleSmall, 7)
	if err != nil {
		b.Fatal(err)
	}
	inj, err := env.Deploy.Injections(env.Deploy.AllPeeringIDs())
	if err != nil {
		b.Fatal(err)
	}
	return env, inj, env.World.TieBreaker()
}

// BenchmarkPropagate measures the dense route-propagation engine on the
// full peering set; BenchmarkPropagateReference measures the map-based
// oracle on identical inputs.
func BenchmarkPropagate(b *testing.B) {
	env, inj, tb := propagateBenchInputs(b)
	env.Graph.Index() // pre-build the shared index, as in steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.PropagateResult(env.Graph, inj, tb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPropagateReference(b *testing.B) {
	env, inj, tb := propagateBenchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.PropagateReference(env.Graph, inj, tb); err != nil {
			b.Fatal(err)
		}
	}
}
