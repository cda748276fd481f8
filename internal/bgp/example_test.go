package bgp_test

import (
	"fmt"
	"net/netip"

	"painter/internal/bgp"
	"painter/internal/topology"
)

// ExamplePropagateResult shows how an advertisement injected at two peerings
// propagates through a small valley-free topology.
func ExamplePropagateResult() {
	g := topology.NewGraph()
	for _, as := range []struct {
		n    topology.ASN
		tier topology.Tier
	}{
		{1, topology.TierOne}, {10, topology.TierTwo}, {11, topology.TierTwo}, {100, topology.TierStub},
	} {
		_ = g.AddAS(&topology.AS{ASN: as.n, Tier: as.tier})
	}
	_ = g.Link(1, 10, topology.RelCustomer)
	_ = g.Link(1, 11, topology.RelCustomer)
	_ = g.Link(10, 100, topology.RelCustomer)
	_ = g.Link(11, 100, topology.RelCustomer)

	// The cloud buys transit from AS 1 (ingress 0) and peers with AS 11
	// (ingress 1). AS 100 multihomes to 10 and 11; the direct peer route
	// via 11 is shorter (2 hops) than transit via 10 (3 hops).
	sel, err := bgp.PropagateResult(g, []bgp.Injection{
		{Neighbor: 1, Class: bgp.ClassCustomer, Ingress: 0},
		{Neighbor: 11, Class: bgp.ClassPeer, Ingress: 1},
	}, nil)
	if err != nil {
		panic(err)
	}
	r, _ := sel.Route(100)
	fmt.Printf("AS100 ingress=%d class=%v pathlen=%d\n", r.Ingress, r.Class, r.PathLen)
	// Output: AS100 ingress=1 class=provider pathlen=2
}

// ExampleUpdate round-trips a BGP UPDATE through the wire codec.
func ExampleUpdate() {
	u := bgp.Update{
		Origin:  bgp.OriginIGP,
		ASPath:  []uint16{64500, 65001},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	}
	wire, err := u.Marshal()
	if err != nil {
		panic(err)
	}
	parsed, err := bgp.ParseUpdate(wire[19:]) // skip the 19-byte header
	if err != nil {
		panic(err)
	}
	fmt.Printf("%v via AS path %v\n", parsed.NLRI[0], parsed.ASPath)
	// Output: 198.51.100.0/24 via AS path [64500 65001]
}
