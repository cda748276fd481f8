package tm

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"painter/internal/netsim/emul"
	"painter/internal/tmproto"
)

// rig is a full prototype: two PoPs behind latency links, one edge.
type rig struct {
	popA, popB   *PoP
	linkA, linkB *emul.Link
	edge         *Edge
	events       chan Event
}

func flowKey(port uint16) tmproto.FlowKey {
	return tmproto.FlowKey{
		Proto:   17,
		Src:     netip.MustParseAddr("10.0.0.5"),
		Dst:     netip.MustParseAddr("203.0.113.9"),
		SrcPort: port,
		DstPort: 443,
	}
}

func destFor(link *emul.Link, pop uint32) tmproto.Destination {
	ap, err := netip.ParseAddrPort(link.Addr())
	if err != nil {
		panic(err)
	}
	return tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: pop}
}

// newRig brings up PoP-A (fast path) and PoP-B (slower path).
func newRig(t *testing.T, delayA, delayB time.Duration, onReturn func(tmproto.FlowKey, []byte)) *rig {
	return newRigCfg(t, delayA, delayB, onReturn, nil)
}

// newRigCfg additionally lets a test tweak the edge config.
func newRigCfg(t *testing.T, delayA, delayB time.Duration, onReturn func(tmproto.FlowKey, []byte), tweak func(*EdgeConfig)) *rig {
	t.Helper()
	r := &rig{events: make(chan Event, 256)}
	var err error
	r.popA, err = NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.popB, err = NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.linkA, err = emul.NewLink(r.popA.Addr(), delayA, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.linkB, err = emul.NewLink(r.popB.Addr(), delayB, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEdgeConfig()
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.MinFailureTimeout = 15 * time.Millisecond
	cfg.Destinations = []tmproto.Destination{destFor(r.linkA, 1), destFor(r.linkB, 2)}
	cfg.OnReturn = onReturn
	cfg.OnEvent = func(ev Event) {
		select {
		case r.events <- ev:
		default:
		}
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r.edge, err = NewEdge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.edge.Close()
		r.linkA.Close()
		r.linkB.Close()
		r.popA.Close()
		r.popB.Close()
	})
	return r
}

// waitSelected waits until the edge selects the destination of the given
// PoP.
func (r *rig) waitSelected(t *testing.T, pop uint32, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if d, ok := r.edge.Selected(); ok && d.PoP == pop {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	d, ok := r.edge.Selected()
	t.Fatalf("edge did not select PoP %d within %v (selected=%+v ok=%v)", pop, within, d, ok)
}

func TestEdgeSelectsLowestLatency(t *testing.T) {
	r := newRig(t, 5*time.Millisecond, 25*time.Millisecond, nil)
	r.waitSelected(t, 1, 2*time.Second)
	// Wait for the slower destination to come alive too (RTT ≈ 50ms).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := r.edge.Status()
		alive := 0
		for _, d := range st {
			if d.Alive {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := r.edge.Status()
	if len(st) != 2 {
		t.Fatalf("status has %d destinations", len(st))
	}
	for _, d := range st {
		if !d.Alive {
			t.Errorf("destination %v not alive", d.Dest)
		}
		if d.Dest.PoP == 1 && d.RTT > 40*time.Millisecond {
			t.Errorf("PoP1 RTT %v implausible for 5ms one-way", d.RTT)
		}
		if d.Dest.PoP == 1 != d.Selected {
			t.Errorf("selection flag wrong for %+v", d)
		}
	}
}

func TestEchoThroughTunnel(t *testing.T) {
	got := make(chan []byte, 8)
	r := newRig(t, 5*time.Millisecond, 25*time.Millisecond,
		func(_ tmproto.FlowKey, payload []byte) { got <- payload })
	r.waitSelected(t, 1, 2*time.Second)

	if err := r.edge.Send(flowKey(1000), []byte("ping-payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "ping-payload" {
			t.Errorf("echoed %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("echo not received")
	}
	// NAT table recorded the flow.
	if r.popA.Stats().DataIn == 0 {
		t.Error("PoP-A saw no data")
	}
}

func TestFlowPinningImmutable(t *testing.T) {
	// Large failure timeout: the latency jump below must not read as a
	// path failure (pinning semantics are what we are testing).
	r := newRigCfg(t, 5*time.Millisecond, 25*time.Millisecond, nil, func(c *EdgeConfig) {
		c.MinFailureTimeout = 500 * time.Millisecond
	})
	r.waitSelected(t, 1, 2*time.Second)
	fk := flowKey(2000)
	if err := r.edge.Send(fk, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Wait for the first packet to traverse the (delayed) link.
	waitCount := func(get func() uint64, want uint64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && get() < want {
			time.Sleep(5 * time.Millisecond)
		}
		if got := get(); got < want {
			t.Fatalf("counter = %d, want >= %d", got, want)
		}
	}
	waitCount(func() uint64 { return r.popA.Stats().DataIn }, 1)
	// Make PoP-B look better: speed its link up and slow A down. The
	// existing flow must stay pinned to A while it remains alive.
	r.linkA.SetDelay(30 * time.Millisecond)
	r.linkB.SetDelay(2 * time.Millisecond)
	r.waitSelected(t, 2, 3*time.Second)
	before := r.popA.Stats().DataIn
	if err := r.edge.Send(fk, []byte("b")); err != nil {
		t.Fatal(err)
	}
	waitCount(func() uint64 { return r.popA.Stats().DataIn }, before+1)
	// A brand new flow uses the new selection (PoP-B).
	bBefore := r.popB.Stats().DataIn
	if err := r.edge.Send(flowKey(2001), []byte("c")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && r.popB.Stats().DataIn == bBefore {
		time.Sleep(5 * time.Millisecond)
	}
	if r.popB.Stats().DataIn == bBefore {
		t.Error("new flow did not use newly selected PoP")
	}
}

// TestFailoverAtRTTTimescale: detection runs from the send time of the
// oldest unanswered probe, so measured from the cut it is at most
// 1.3 RTT plus the wait for that probe to leave (a probe interval, 1.25
// with a late tick). Probing faster than the path's RTT, the paper's
// regime, keeps a probe always in flight; at longer intervals the path
// sits idle between probes and a cut waits, unnoticed, for the next one.
func TestFailoverAtRTTTimescale(t *testing.T) {
	const (
		oneWay        = 5 * time.Millisecond
		rtt           = 2 * oneWay
		probeInterval = 5 * time.Millisecond
		bound         = 13*rtt/10 + 5*probeInterval/4 + 10*time.Millisecond // 1.3·RTT + 1.25·ProbeInterval + slack
	)
	r := newRigCfg(t, oneWay, 25*time.Millisecond, nil, func(c *EdgeConfig) {
		c.ProbeInterval = probeInterval
	})
	// The bound is a few milliseconds wide and the clock is the wall's:
	// a host stall during one attempt, or just before it (the deviation
	// estimate widens the timeout after an RTT spike, as it should), says
	// nothing about the rule, so a late verdict earns a fresh attempt.
	var detect, silent time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		r.waitSelected(t, 1, 3*time.Second)
		// Let RTT estimates settle.
		time.Sleep(300 * time.Millisecond)
		for len(r.events) > 0 {
			<-r.events
		}

		// Fail PoP-A's path (prefix withdrawal).
		failAt := time.Now()
		r.linkA.SetDown(true)

		dead := waitEvent(t, r.events, 2*time.Second, "dest-dead", func(ev Event) bool {
			return ev.Kind == EventDestDead && ev.Dest.PoP == 1
		})
		detect, silent = dead.At.Sub(failAt), dead.SinceLastReply
		// Edge must then select PoP-B.
		r.waitSelected(t, 2, 2*time.Second)
		if detect <= bound && silent <= bound {
			break
		}
		t.Logf("attempt %d: declared dead %v after the cut, %v after the last reply", attempt, detect, silent)
		r.linkA.SetDown(false)
	}
	if detect > bound {
		t.Errorf("declared dead %v after the cut, want <= %v (1.3 RTT + 1.25 probe intervals + 10 ms)", detect, bound)
	}
	if silent > bound {
		t.Errorf("declared dead %v after last reply", silent)
	}
	if r.edge.Stats().Failovers == 0 {
		t.Error("failover counter not incremented")
	}
}

// TestSingleProbeLossIsNotDeath: at the default configuration on a
// zero-delay link — probe interval far above the RTT — one dropped
// probe must not read as a dead destination. A fixed floor of one probe
// interval plus an RTT of silence fails this whenever the next probe's
// tick comes late, which is why the floor uses the measured send gap.
func TestSingleProbeLossIsNotDeath(t *testing.T) {
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	link, err := emul.NewLink(pop.Addr(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	events := make(chan Event, 256)
	cfg := DefaultEdgeConfig()
	cfg.Destinations = []tmproto.Destination{destFor(link, 1)}
	cfg.OnEvent = func(ev Event) {
		select {
		case events <- ev:
		default:
		}
	}
	edge, err := NewEdge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	waitEvent(t, events, 2*time.Second, "initial selection", func(ev Event) bool {
		return ev.Kind == EventSelected
	})
	time.Sleep(3 * cfg.ProbeInterval)

	var dropped atomic.Bool
	link.SetFilter(func(pkt []byte) bool {
		if tp, err := tmproto.PeekType(pkt); err == nil && tp == tmproto.TypeProbe {
			return !dropped.CompareAndSwap(false, true)
		}
		return true
	})
	deadline := time.Now().Add(2 * time.Second)
	for !dropped.Load() {
		if time.Now().After(deadline) {
			t.Fatal("no probe reached the link")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(4 * cfg.ProbeInterval)
	for len(events) > 0 {
		if ev := <-events; ev.Kind == EventDestDead {
			t.Fatalf("one lost probe read as death: %+v", ev)
		}
	}
	if st := edge.Status(); len(st) != 1 || !st[0].Alive {
		t.Fatalf("status after one lost probe: %+v", st)
	}
}

func TestRecoveryAfterFailure(t *testing.T) {
	r := newRig(t, 5*time.Millisecond, 25*time.Millisecond, nil)
	r.waitSelected(t, 1, 2*time.Second)
	time.Sleep(150 * time.Millisecond)
	r.linkA.SetDown(true)
	r.waitSelected(t, 2, 2*time.Second)
	r.linkA.SetDown(false)
	// Once A answers probes again it should win back the selection
	// (lower RTT beats hysteresis).
	r.waitSelected(t, 1, 3*time.Second)
}

func TestFlowRepinsAfterDestinationDeath(t *testing.T) {
	got := make(chan []byte, 8)
	r := newRig(t, 5*time.Millisecond, 25*time.Millisecond,
		func(_ tmproto.FlowKey, p []byte) { got <- p })
	r.waitSelected(t, 1, 2*time.Second)
	fk := flowKey(3000)
	if err := r.edge.Send(fk, []byte("before")); err != nil {
		t.Fatal(err)
	}
	<-got
	r.linkA.SetDown(true)
	r.waitSelected(t, 2, 2*time.Second)
	if err := r.edge.Send(fk, []byte("after")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "after" {
			t.Errorf("got %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("re-pinned flow got no echo")
	}
	if r.edge.Stats().RepinnedFlows == 0 {
		t.Error("repin counter not incremented")
	}
}

func TestNoAliveDestinations(t *testing.T) {
	r := newRig(t, 5*time.Millisecond, 10*time.Millisecond, nil)
	r.waitSelected(t, 1, 2*time.Second)
	r.linkA.SetDown(true)
	r.linkB.SetDown(true)
	// Wait for both to be declared dead.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st := r.edge.Status()
		anyAlive := false
		for _, d := range st {
			if d.Alive {
				anyAlive = true
			}
		}
		if !anyAlive {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.edge.Send(flowKey(4000), []byte("x")); err == nil {
		t.Error("Send with no alive destinations should fail")
	}
}

func TestResolveFromPoP(t *testing.T) {
	dests := []tmproto.Destination{
		{Addr: netip.MustParseAddr("1.1.1.1"), Port: 4000, PoP: 1, Anycast: true},
		{Addr: netip.MustParseAddr("2.2.2.2"), Port: 4001, PoP: 1},
	}
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1, Destinations: dests})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	edge, err := NewEdge(EdgeConfig{ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	if err := edge.ResolveFrom(pop.Addr(), "svc", time.Second); err != nil {
		t.Fatal(err)
	}
	st := edge.Status()
	if len(st) != 2 {
		t.Fatalf("resolved %d destinations, want 2", len(st))
	}
	if pop.Stats().Resolves != 1 {
		t.Error("PoP resolve counter wrong")
	}
}

func TestSetDestinationsRemoval(t *testing.T) {
	r := newRig(t, 5*time.Millisecond, 10*time.Millisecond, nil)
	r.waitSelected(t, 1, 2*time.Second)
	// Remove PoP-A's destination; the edge must select PoP-B.
	if err := r.edge.SetDestinations([]tmproto.Destination{destFor(r.linkB, 2)}); err != nil {
		t.Fatal(err)
	}
	r.waitSelected(t, 2, 2*time.Second)
	if len(r.edge.Status()) != 1 {
		t.Errorf("status should have 1 destination")
	}
}

func TestPoPMalformedCounters(t *testing.T) {
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	conn, err := netDial(pop.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && pop.Stats().Malformed == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if pop.Stats().Malformed == 0 {
		t.Error("malformed datagram not counted")
	}
}

func TestConcurrentSends(t *testing.T) {
	var mu sync.Mutex
	rcvd := map[string]bool{}
	r := newRig(t, 3*time.Millisecond, 6*time.Millisecond,
		func(_ tmproto.FlowKey, p []byte) {
			mu.Lock()
			rcvd[string(p)] = true
			mu.Unlock()
		})
	r.waitSelected(t, 1, 2*time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_ = r.edge.Send(flowKey(uint16(5000+i)), []byte(fmt.Sprintf("m-%d-%d", i, j)))
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(rcvd)
		mu.Unlock()
		if n >= 16*20*9/10 { // UDP: allow a little loss
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	n := len(rcvd)
	mu.Unlock()
	t.Errorf("received %d of %d messages", n, 16*20)
}

// netDial dials a UDP address (helper).
func netDial(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, ua)
}
