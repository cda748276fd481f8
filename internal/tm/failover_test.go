package tm

// Failover-hardening property tests: bounded reselection away from a
// failed destination under probe loss, and exponential backoff with
// quarantine on dead destinations.

import (
	"net/netip"
	"testing"
	"time"

	"painter/internal/netsim/emul"
	"painter/internal/obs"
	"painter/internal/tmproto"
)

// waitEvent drains the rig's event channel until pred matches, failing
// after the deadline.
func waitEvent(t *testing.T, events <-chan Event, within time.Duration, what string, pred func(Event) bool) Event {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case ev := <-events:
			if pred(ev) {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %s event within %v", what, within)
		}
	}
}

// TestFailoverBoundedUnderProbeLoss is the acceptance property: with 20%
// probe loss on the surviving path, the edge must reselect away from a
// failed destination within a bounded number of probe rounds.
func TestFailoverBoundedUnderProbeLoss(t *testing.T) {
	const (
		probeInterval = 10 * time.Millisecond
		// maxRounds bounds the reselection time: death detection needs
		// silence ≥ max(MinFailureTimeout, ProbeInterval+RTT) ≈ 4 rounds,
		// plus scheduling slack and the odd lost survivor probe.
		maxRounds = 40
	)
	r := newRigCfg(t, 3*time.Millisecond, 8*time.Millisecond, nil, func(cfg *EdgeConfig) {
		cfg.ProbeInterval = probeInterval
		cfg.MinFailureTimeout = 40 * time.Millisecond
	})
	r.waitSelected(t, 1, 2*time.Second)

	// Give the survivor a lossy path, then kill the selected link.
	r.linkB.SetLossPct(20)
	start := time.Now()
	r.linkA.SetDown(true)

	ev := waitEvent(t, r.events, 5*time.Second, "reselection", func(ev Event) bool {
		return ev.Kind == EventSelected && ev.Dest.PoP == 2
	})
	elapsed := ev.At.Sub(start)
	rounds := int(elapsed / probeInterval)
	if rounds > maxRounds {
		t.Errorf("reselection took %v (%d probe rounds), bound is %d rounds",
			elapsed, rounds, maxRounds)
	}
	if d, ok := r.edge.Selected(); !ok || d.PoP != 2 {
		t.Fatalf("edge not pinned to survivor: %+v ok=%v", d, ok)
	}
}

// TestDeadDestinationBackoffAndQuarantine drives a single-destination
// edge through death, exponential backoff, quarantine, and recovery.
func TestDeadDestinationBackoffAndQuarantine(t *testing.T) {
	const (
		probeInterval = 10 * time.Millisecond
		maxBackoff    = maxBackoffProbes * probeInterval
	)
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	link, err := emul.NewLink(pop.Addr(), 2*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	events := make(chan Event, 1024)
	cfg := DefaultEdgeConfig()
	cfg.ProbeInterval = probeInterval
	cfg.MinFailureTimeout = 15 * time.Millisecond
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

	// The recovery-probe interval the edge schedules stays positive and
	// within maxBackoff plus its jitter, however many probes went
	// unanswered.
	for n := 0; n <= 20; n++ {
		if b := edge.backoffAfter(n, uint32(n)); b <= 0 || b > maxBackoff*115/100 {
			t.Errorf("backoff after %d dead probes = %v, want in (0, %v]", n, b, maxBackoff*115/100)
		}
	}

	waitEvent(t, events, 2*time.Second, "initial selection", func(ev Event) bool {
		return ev.Kind == EventSelected && ev.Dest.PoP == 1
	})

	link.SetDown(true)
	waitEvent(t, events, 2*time.Second, "dest-dead", func(ev Event) bool {
		return ev.Kind == EventDestDead
	})
	waitEvent(t, events, 2*time.Second, "dest-quarantined", func(ev Event) bool {
		return ev.Kind == EventDestQuarantined
	})
	if st := edge.Status(); len(st) != 1 || st[0].Alive {
		t.Errorf("status in quarantine: %+v", st)
	}

	// While quarantined, probing must run at the backed-off cadence, far
	// below the normal rate (window/probeInterval = 30 probes).
	before := edge.Stats().ProbesSent
	window := 300 * time.Millisecond
	time.Sleep(window)
	sent := edge.Stats().ProbesSent - before
	if maxAllowed := uint64(window/maxBackoff) + 3; sent > maxAllowed {
		t.Errorf("quarantined dest probed %d times in %v, want <= %d", sent, window, maxAllowed)
	}

	// Recovery: the next backed-off probe must revive and reselect it.
	link.SetDown(false)
	waitEvent(t, events, maxBackoff*2+time.Second, "dest-alive", func(ev Event) bool {
		return ev.Kind == EventDestAlive
	})
	waitEvent(t, events, 2*time.Second, "reselection", func(ev Event) bool {
		return ev.Kind == EventSelected && ev.Dest.PoP == 1
	})
	st := edge.Status()
	if len(st) != 1 || !st[0].Alive {
		t.Errorf("status after recovery: %+v", st)
	}
}

// TestFlowRehomedAfterTunnelDeath exercises the PoP-side mid-flow
// graceful degradation: when the edge re-pins a live flow to another
// tunnel, the PoP re-homes the Known Flows entry, counts the move, and
// the flow's replies follow the new tunnel.
func TestFlowRehomedAfterTunnelDeath(t *testing.T) {
	// Two edges sharing one PoP stand in for one edge whose source
	// address changes when its preferred tunnel dies: the PoP only sees
	// the flow arriving from a new address.
	reg := obs.NewRegistry()
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()

	mk := func() *Edge {
		cfg := DefaultEdgeConfig()
		cfg.ProbeInterval = 10 * time.Millisecond
		cfg.Destinations = []tmproto.Destination{destFor2(t, pop.Addr(), 1)}
		e, err := NewEdge(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	defer e1.Close()
	e2 := mk()
	defer e2.Close()

	fl := flowKey(4242)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := e1.Selected(); ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := e1.Send(fl, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// The PoP may read the two edges' datagrams on different sockets:
	// wait for the first echo, so the flow is known at the first edge
	// before it moves.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && e1.Stats().DataRcvd == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if e1.Stats().DataRcvd == 0 {
		t.Fatal("no echo through the first edge")
	}

	// The "failover": the same flow now enters through the second edge.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := e2.Selected(); ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := e2.Send(fl, []byte("hello again")); err != nil {
		t.Fatal(err)
	}

	// The echo of the re-homed flow returns through the second edge.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && e2.Stats().DataRcvd == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if got := e2.Stats().DataRcvd; got < 1 {
		t.Fatal("no reply reached the second edge after mid-flow re-homing")
	}
	if mv := reg.Snapshot().Counters["tm_pop_flow_moves_total"]; mv != 1 {
		t.Errorf("tm_pop_flow_moves_total = %d, want 1", mv)
	}
}

// destFor2 builds a Destination straight from a PoP address (no link in
// between).
func destFor2(t *testing.T, addr string, pop uint32) tmproto.Destination {
	t.Helper()
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	return tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: pop}
}
