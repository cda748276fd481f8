package netsim

import (
	"fmt"
	"log"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/topology"
)

// The paper's motivating customer problem (Fig. 1), reconstructed in the
// simulator.
//
// An enterprise branch office in City A reaches the cloud through a
// regional ISP whose peering router fails. Under anycast, its traffic
// then lands at a distant PoP in City B — a policy-compliant path to the
// close PoP through a transit ISP exists, but plain anycast/BGP has "no
// mechanism for detecting such paths and re-directing customer traffic".
// PAINTER's Advertisement Orchestrator exposes that transit path as a
// separate prefix, and the Traffic Manager can steer onto it at once.
func Example_fig1Scenario() {
	// --- The cast (Fig. 1): City A = New York, City B = Los Angeles.
	const (
		transitISP  = topology.ASN(1)  // Transit ISP (tier-1)
		regionalISP = topology.ASN(10) // City A's regional ISP (tier-2)
		otherISP    = topology.ASN(11) // serves City B
		enterprise  = topology.ASN(100)
	)
	g := topology.NewGraph()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(g.AddAS(&topology.AS{ASN: transitISP, Tier: topology.TierOne, Kind: topology.KindTransit,
		Metros: []string{"nyc", "lax"}}))
	must(g.AddAS(&topology.AS{ASN: regionalISP, Tier: topology.TierTwo, Kind: topology.KindTransit,
		Metros: []string{"nyc"}}))
	must(g.AddAS(&topology.AS{ASN: otherISP, Tier: topology.TierTwo, Kind: topology.KindTransit,
		Metros: []string{"lax"}}))
	must(g.AddAS(&topology.AS{ASN: enterprise, Tier: topology.TierStub, Kind: topology.KindEnterprise,
		Metros: []string{"nyc"}}))
	// The branch multihomes to the regional ISP; both ISPs buy transit.
	must(g.Link(regionalISP, enterprise, topology.RelCustomer))
	must(g.Link(transitISP, regionalISP, topology.RelCustomer))
	must(g.Link(transitISP, otherISP, topology.RelCustomer))
	must(g.Validate())

	// --- The cloud: a close PoP in City A, a distant PoP in City B.
	newDeploy := func(includeRegional bool) *cloud.Deployment {
		peerings := []cloud.Peering{
			// Transit ISP provides transit at both PoPs (customer-class).
			{ID: 0, PoP: 0, PeerASN: transitISP, ClassAtPeer: bgp.ClassCustomer},
			{ID: 1, PoP: 1, PeerASN: transitISP, ClassAtPeer: bgp.ClassCustomer},
			// City B's ISP peers at the distant PoP.
			{ID: 2, PoP: 1, PeerASN: otherISP, ClassAtPeer: bgp.ClassPeer},
		}
		if includeRegional {
			// The regional ISP peers at the close PoP — until its peering
			// router fails.
			peerings = append(peerings, cloud.Peering{
				ID: 3, PoP: 0, PeerASN: regionalISP, ClassAtPeer: bgp.ClassPeer,
			})
		}
		nyc := cloud.PoP{ID: 0, Metro: "nyc"}
		lax := cloud.PoP{ID: 1, Metro: "lax"}
		d, err := cloud.New(64500, []cloud.PoP{nyc, lax}, peerings)
		must(err)
		return d
	}

	show := func(label string, d *cloud.Deployment, peerings []bgp.IngressID) {
		w, err := New(g, d, 7)
		must(err)
		sel, err := w.ResolveIngress(peerings)
		must(err)
		r, ok := sel.Route(enterprise)
		if !ok {
			fmt.Printf("%-34s branch office: NO ROUTE\n", label)
			return
		}
		pop, _ := d.PoPOfPeering(r.Ingress)
		ms := cleanLatencyMs(w, enterprise, "nyc", r.Ingress)
		fmt.Printf("%-34s branch lands at PoP %s via %v (%.1f ms)\n",
			label, pop.Metro, d.Peering(r.Ingress).PeerASN, ms)
	}

	fmt.Println("Fig. 1 — a difficult customer problem, and what PAINTER does about it")
	fmt.Println()

	healthy := newDeploy(true)
	show("healthy anycast:", healthy, healthy.AllPeeringIDs())

	// The regional ISP's peering router fails: its peering disappears.
	broken := newDeploy(false)
	show("after peering failure, anycast:", broken, broken.AllPeeringIDs())

	// PAINTER: a dedicated prefix via the Transit ISP at the CLOSE PoP
	// exposes the policy-compliant path Fig. 1 labels "Unusable".
	show("PAINTER prefix (transit @ nyc):", broken, []bgp.IngressID{0})

	fmt.Println()
	fmt.Println("Under plain anycast the enterprise is stuck at the distant PoP until")
	fmt.Println("operators 'fiddle with route policies and weights' (risky and slow).")
	fmt.Println("With PAINTER the transit path at the close PoP is already advertised as")
	fmt.Println("its own prefix, and the TM-Edge shifts flows to it within one RTT —")
	fmt.Println("run `go run ./cmd/painter-bench -exp fig10` to watch that mechanism live.")

	// Output:
	// Fig. 1 — a difficult customer problem, and what PAINTER does about it
	//
	// healthy anycast:                   branch lands at PoP nyc via AS10 (5.3 ms)
	// after peering failure, anycast:    branch lands at PoP lax via AS1 (72.6 ms)
	// PAINTER prefix (transit @ nyc):    branch lands at PoP nyc via AS1 (5.0 ms)
	//
	// Under plain anycast the enterprise is stuck at the distant PoP until
	// operators 'fiddle with route policies and weights' (risky and slow).
	// With PAINTER the transit path at the close PoP is already advertised as
	// its own prefix, and the TM-Edge shifts flows to it within one RTT —
	// run `go run ./cmd/painter-bench -exp fig10` to watch that mechanism live.
}

// cleanLatencyMs is the demo's latency model: BaseLatencyMs without
// intra-AS detours and with a 2–4 ms last mile, pure geography, since
// the routing failure is the story here.
func cleanLatencyMs(w *World, asn topology.ASN, metro string, ing bgp.IngressID) float64 {
	distKm, err := w.distanceKm(metro, ing)
	if err != nil {
		log.Fatal(err)
	}
	ugKey := uint64(asn)<<16 ^ metroKey(metro)
	stretch := 1.2 + 0.7*unit(w.h64(domStretch, ugKey, uint64(ing)))
	access := 2 + 2*unit(w.h64(domAccess, ugKey))
	return geo.KmToMinRTTMs(distKm)*stretch + access + w.peerPenOf[ing]
}
