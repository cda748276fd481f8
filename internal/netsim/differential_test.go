package netsim

// Differential property test: a cached, day-advanced world must answer
// every query identically to a freshly constructed world set directly to
// the same day. Any divergence means a cache survived an invalidation
// boundary it should not have.

import (
	"slices"
	"testing"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/topology"
)

// diffWorldPair builds a cached world and a factory for fresh worlds
// over the same randomized (per-trial) topology and deployment.
func diffWorldPair(t *testing.T, trial int64) (*World, func(day int) *World) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Seed: 100 + trial, Tier1: 3, Tier2: 10, Stubs: 60,
		MeanStubProviders: 2.2, Tier2PeerProb: 0.3,
		EnterpriseFrac: 0.35, ContentFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{
		Name: "diff", PoPMetros: 6, PeerFrac: 0.7, TransitProviders: 2, Seed: 200 + trial,
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := 300 + trial
	w, err := New(g, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(day int) *World {
		fw, err := New(g, d, seed)
		if err != nil {
			t.Fatal(err)
		}
		fw.SetDay(day)
		return fw
	}
	return w, fresh
}

// sampleASNs picks a deterministic spread of ASes with metros.
func sampleASNs(g *topology.Graph, n int) []topology.ASN {
	var out []topology.ASN
	asns := g.ASNs()
	step := len(asns)/n + 1
	for i := 0; i < len(asns) && len(out) < n; i += step {
		if a := g.AS(asns[i]); a != nil && len(a.Metros) > 0 {
			out = append(out, asns[i])
		}
	}
	return out
}

func TestDifferentialCachedVsFreshWorld(t *testing.T) {
	// Each trial: a different topology/deployment/seed and a different
	// day walk (forward jumps, repeats, and backward jumps).
	daySeqs := [][]int{
		{0, 1, 2, 3, 7},
		{5, 5, 0, 12, 3},
		{2, 9, 9, 1, 30},
	}
	for trial := int64(0); trial < 3; trial++ {
		w, fresh := diffWorldPair(t, trial)
		all := w.Deploy.AllPeeringIDs()
		subset := all[:(len(all)+1)/2]
		asns := sampleASNs(w.Graph, 8)

		for _, day := range daySeqs[trial] {
			w.SetDay(day)
			fw := fresh(day)

			for _, peerings := range [][]bgp.IngressID{all, subset} {
				a, err := w.ResolveIngress(peerings)
				if err != nil {
					t.Fatal(err)
				}
				b, err := fw.ResolveIngress(peerings)
				if err != nil {
					t.Fatal(err)
				}
				if !routesEqual(a, b) {
					t.Fatalf("trial %d day %d: cached ResolveIngress(%d peerings) != fresh",
						trial, day, len(peerings))
				}
			}

			for _, asn := range asns {
				ap, err1 := w.CompliantIngressIDs(asn)
				bp, err2 := fw.CompliantIngressIDs(asn)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("trial %d day %d AS %v: CompliantIngressIDs errs diverge: %v vs %v",
						trial, day, asn, err1, err2)
				}
				if !slices.Equal(ap, bp) {
					t.Fatalf("trial %d day %d AS %v: CompliantIngressIDs diverges", trial, day, asn)
				}

				metro := w.Graph.AS(asn).Metros[0]
				am, ai, aerr := w.BestIngressLatency(asn, metro)
				bm, bi, berr := fw.BestIngressLatency(asn, metro)
				if (aerr == nil) != (berr == nil) || am != bm || ai != bi {
					t.Fatalf("trial %d day %d AS %v: BestIngressLatency (%v,%v,%v) != (%v,%v,%v)",
						trial, day, asn, am, ai, aerr, bm, bi, berr)
				}

				for _, ing := range []bgp.IngressID{all[0], all[len(all)-1]} {
					al, err1 := w.LatencyMs(asn, metro, ing)
					bl, err2 := fw.LatencyMs(asn, metro, ing)
					if (err1 == nil) != (err2 == nil) || al != bl {
						t.Fatalf("trial %d day %d AS %v ing %d: LatencyMs %v (%v) != %v (%v)",
							trial, day, asn, ing, al, err1, bl, err2)
					}
				}
			}
		}
	}
}

// TestDifferentialAfterEvents extends the property across the event
// layer: a world that went through fail/flip/recover cycles must agree
// with a fresh world put in the same overlay state by the same events.
func TestDifferentialAfterEvents(t *testing.T) {
	w, fresh := diffWorldPair(t, 7)
	all := w.Deploy.AllPeeringIDs()
	events := []Event{
		{Kind: EventPeeringDown, Ingress: all[0]},
		{Kind: EventPrefFlip, AS: sampleASNs(w.Graph, 1)[0], Ingress: all[1]},
		{Kind: EventLatencySpike, Ingress: all[2%len(all)], Ms: 33},
		{Kind: EventPeeringUp, Ingress: all[0]},
	}
	// Warm the cached world's caches first, then apply events.
	if _, err := w.ResolveIngress(all); err != nil {
		t.Fatal(err)
	}
	w.SetDay(4)
	if _, err := w.ResolveIngress(all); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := w.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}

	fw := fresh(4)
	for _, ev := range events {
		if err := fw.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}

	a, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fw.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	if !routesEqual(a, b) {
		t.Fatal("cached world diverges from fresh world after identical event history")
	}
	for _, asn := range sampleASNs(w.Graph, 5) {
		metro := w.Graph.AS(asn).Metros[0]
		am, ai, aerr := w.BestIngressLatency(asn, metro)
		bm, bi, berr := fw.BestIngressLatency(asn, metro)
		if (aerr == nil) != (berr == nil) || am != bm || ai != bi {
			t.Fatalf("AS %v: BestIngressLatency diverges after events", asn)
		}
		al, _ := w.LatencyMs(asn, metro, all[2%len(all)])
		bl, _ := fw.LatencyMs(asn, metro, all[2%len(all)])
		if al != bl {
			t.Fatalf("AS %v: LatencyMs diverges after events", asn)
		}
	}
}
