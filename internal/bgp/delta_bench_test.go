package bgp_test

import (
	"testing"

	"painter/internal/bgp"
	"painter/internal/topology"
)

// benchSetup builds a mid-sized topology with one injection per sampled
// neighbor and the settled full-propagation base the delta runs repair.
func benchSetup(b *testing.B) (*topology.Graph, []bgp.Injection, *bgp.Result) {
	b.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Seed: 11, Tier1: 4, Tier2: 20, Stubs: 300,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3,
		EnterpriseFrac: 0.3, ContentFrac: 0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	asns := g.ASNs()
	var inj []bgp.Injection
	for i := 0; i < 32; i++ {
		inj = append(inj, bgp.Injection{
			Neighbor: asns[(i*37)%len(asns)],
			Class:    bgp.ClassPeer,
			Ingress:  bgp.IngressID(i),
		})
	}
	base, err := bgp.PropagateResult(g, inj, nil)
	if err != nil {
		b.Fatal(err)
	}
	return g, inj, base
}

// BenchmarkPropagateDelta measures repairing the settled base after one
// injection withdrawal — the per-event cost of the delta engine.
func BenchmarkPropagateDelta(b *testing.B) {
	g, inj, base := benchSetup(b)
	sub := append([]bgp.Injection(nil), inj[:len(inj)-1]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bgp.PropagateDelta(base, g, sub, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagateFull is the cost of the same input repaired from the
// empty Result (PropagateResult): the same settle loop with every
// injection new, the yardstick for what a one-withdrawal repair saves.
func BenchmarkPropagateFull(b *testing.B) {
	g, inj, _ := benchSetup(b)
	sub := append([]bgp.Injection(nil), inj[:len(inj)-1]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.PropagateResult(g, sub, nil); err != nil {
			b.Fatal(err)
		}
	}
}
