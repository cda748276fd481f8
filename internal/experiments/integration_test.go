package experiments

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"painter/internal/bgp"
	"painter/internal/core"
	"painter/internal/netsim/emul"
	"painter/internal/routeserver"
	"painter/internal/tm"
	"painter/internal/tmproto"
)

// TestEndToEndControlAndDataPlane wires the whole system together the
// way Fig. 4 draws it:
//
//  1. the Advertisement Orchestrator computes a configuration;
//  2. the configuration is installed: announced over a real BGP session
//     to a route server, and pushed as destination sets into TM-PoPs;
//  3. a TM-Edge resolves its destination set from a TM-PoP over the
//     wire, probes the tunnels, and carries client traffic end to end.
func TestEndToEndControlAndDataPlane(t *testing.T) {
	e := env(t)

	// --- 1. Control plane: solve.
	params := core.DefaultParams(4)
	params.MaxIterations = 1
	orch, err := core.New(e.Inputs, core.NewWorldExecutor(e.World, e.UGs, 0, 1), params)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := orch.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumPrefixes() == 0 {
		t.Fatal("empty configuration")
	}

	// --- 2a. Install: announce prefixes to a route server over BGP.
	rs, err := routeserver.New(routeserver.Config{
		ListenAddr: "127.0.0.1:0", LocalAS: 64999, BGPID: 1, HoldTime: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	conn, err := net.Dial("tcp", rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sp := bgp.NewSpeaker(conn, 64500, 2, 5*time.Second)
	if err := sp.Handshake(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = sp.Run() }()
	defer sp.Close()
	for i := range cfg.Prefixes {
		u := bgp.Update{
			Origin:  bgp.OriginIGP,
			ASPath:  []uint16{64500},
			NextHop: netip.MustParseAddr("192.0.2.1"),
			NLRI:    []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)},
		}
		if err := sp.SendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && rs.RIB().Size() != cfg.NumPrefixes() {
		time.Sleep(5 * time.Millisecond)
	}
	if rs.RIB().Size() != cfg.NumPrefixes() {
		t.Fatalf("route server learned %d prefixes, want %d", rs.RIB().Size(), cfg.NumPrefixes())
	}

	// --- 2b. Install: one TM-PoP per configured prefix (scaled-down:
	// prefix i terminates at PoP i), each behind a latency link; the
	// first PoP also advertises the full destination set for resolution.
	nPrefixes := cfg.NumPrefixes()
	if nPrefixes > 3 {
		nPrefixes = 3 // keep the socket count reasonable
	}
	pops := make([]*tm.PoP, nPrefixes)
	links := make([]*emul.Link, nPrefixes)
	dests := make([]tmproto.Destination, nPrefixes)
	for i := 0; i < nPrefixes; i++ {
		pop, err := tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer pop.Close()
		pops[i] = pop
		link, err := emul.NewLink(pop.Addr(), time.Duration(4+4*i)*time.Millisecond, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		links[i] = link
		ap := netip.MustParseAddrPort(link.Addr())
		dests[i] = tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: uint32(i + 1)}
	}
	pops[0].SetDestinations(dests)

	// --- 3. Data plane: edge resolves the destination set over the wire
	// and carries traffic.
	echo := make(chan []byte, 16)
	edgeCfg := tm.DefaultEdgeConfig()
	edgeCfg.ProbeInterval = 15 * time.Millisecond
	edgeCfg.OnReturn = func(_ tmproto.FlowKey, p []byte) { echo <- p }
	edge, err := tm.NewEdge(edgeCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	if err := edge.ResolveFrom(pops[0].Addr(), "svc", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(edge.Status()); got != nPrefixes {
		t.Fatalf("edge resolved %d destinations, want %d", got, nPrefixes)
	}

	// Wait for selection; the lowest-latency tunnel (PoP 1) must win.
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if d, ok := edge.Selected(); ok && d.PoP == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d, ok := edge.Selected(); !ok || d.PoP != 1 {
		t.Fatalf("edge selected %+v, want PoP 1 (lowest latency)", d)
	}

	flow := tmproto.FlowKey{
		Proto: 6,
		Src:   netip.MustParseAddr("10.1.1.1"), Dst: netip.MustParseAddr("203.0.113.5"),
		SrcPort: 5555, DstPort: 443,
	}
	if err := edge.Send(flow, []byte("end-to-end")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-echo:
		if string(p) != "end-to-end" {
			t.Errorf("echo = %q", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no echo through the tunnel")
	}

	// Withdraw the chosen prefix (fail PoP 1): the edge must fail over
	// and traffic must keep flowing — the whole point of the system.
	if nPrefixes >= 2 {
		links[0].SetDown(true)
		deadline = time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if d, ok := edge.Selected(); ok && d.PoP != 1 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if d, ok := edge.Selected(); !ok || d.PoP == 1 {
			t.Fatal("edge did not fail over after withdrawal")
		}
		if err := edge.Send(flow, []byte("after-failover")); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-echo:
			if string(p) != "after-failover" {
				t.Errorf("echo = %q", p)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("no echo after failover")
		}
	}
}
