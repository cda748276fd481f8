package tm

// Regression tests for the probe/flow-lifecycle bugfix sweep. Each test
// fails against the pre-fix code:
//
//  1. RTT from the wire wall-clock timestamp — a stepped clock either
//     corrupted the EWMA (step back) or discarded live replies until the
//     destination was declared dead (step forward). RTT now comes from a
//     locally recorded monotonic send time.
//  2. Flow purging only ran on packet arrival, so idle flows on a
//     quiesced PoP were retained indefinitely. Purging now runs on a
//     dedicated ticker.
//  3. ProbesSent counted failed sends, skewing any detector gated on
//     probe output.

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"painter/internal/tmproto"
)

// skewPoP is a minimal probe responder that rewrites the echoed
// SentUnixNano by skew before replying — simulating an edge whose wall
// clock stepped (NTP correction) between probe send and reply receipt.
func skewPoP(t *testing.T, skew time.Duration) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if tp, _ := tmproto.PeekType(buf[:n]); tp != tmproto.TypeProbe {
				continue
			}
			p, _, err := tmproto.ParseProbe(buf[:n])
			if err != nil {
				continue
			}
			p.SentUnixNano += skew.Nanoseconds()
			_, _ = conn.WriteToUDP(tmproto.AppendProbe(nil, p, true), from)
		}
	}()
	return conn.LocalAddr().String()
}

func skewDest(t *testing.T, addr string) tmproto.Destination {
	t.Helper()
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	return tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: 1}
}

// TestRTTSurvivesClockStepForward: the reply's wire timestamp reads one
// hour in the future (edge clock stepped back after send). Pre-fix the
// computed RTT was negative, the reply was discarded, awaiting stayed
// set, and a perfectly live destination was declared dead.
func TestRTTSurvivesClockStepForward(t *testing.T) {
	addr := skewPoP(t, time.Hour)
	edge, err := NewEdge(EdgeConfig{
		ProbeInterval:     20 * time.Millisecond,
		MinFailureTimeout: 15 * time.Millisecond,
		Destinations:      []tmproto.Destination{skewDest(t, addr)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := edge.Selected(); ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := edge.Selected(); !ok {
		t.Fatal("destination never selected: skewed replies were discarded")
	}
	// Stay up across many probe rounds: the destination must remain
	// alive, not flap dead while answering every probe.
	time.Sleep(200 * time.Millisecond)
	st := edge.Status()
	if len(st) != 1 || !st[0].Alive {
		t.Fatalf("destination not alive under forward clock skew: %+v", st)
	}
	if edge.Stats().RepliesRcvd == 0 {
		t.Fatal("no replies recorded")
	}
}

// TestRTTSurvivesClockStepBackward: the reply's wire timestamp reads
// one hour in the past (edge clock stepped forward after send). Pre-fix
// the RTT EWMA absorbed a one-hour sample, wrecking both selection and
// the RTT-proportional failure timeout.
func TestRTTSurvivesClockStepBackward(t *testing.T) {
	addr := skewPoP(t, -time.Hour)
	edge, err := NewEdge(EdgeConfig{
		ProbeInterval:     20 * time.Millisecond,
		MinFailureTimeout: 15 * time.Millisecond,
		Destinations:      []tmproto.Destination{skewDest(t, addr)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := edge.Selected(); ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := edge.Status()
	if len(st) != 1 || !st[0].Alive {
		t.Fatalf("destination not alive: %+v", st)
	}
	// Loopback RTT is well under a second; an hour-scale reading means
	// the wire timestamp leaked into the estimate.
	if st[0].RTT > time.Second {
		t.Fatalf("RTT %v corrupted by clock step", st[0].RTT)
	}
}

// TestIdleFlowsPurgedWithoutTraffic: Known Flows entries must expire at
// FlowTTL with zero inbound packets. Pre-fix the purge check piggybacked
// on the read loop, so a quiesced PoP retained idle flows indefinitely.
func TestIdleFlowsPurgedWithoutTraffic(t *testing.T) {
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1, FlowTTL: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()

	conn, err := netDial(pop.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt, err := tmproto.AppendData(nil, tmproto.Data{Flow: flowKey(7000), Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && pop.Stats().ActiveFlows == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if pop.Stats().ActiveFlows != 1 {
		t.Fatal("flow entry not recorded")
	}

	// No further packets. The entry must still expire.
	for time.Now().Before(deadline) && pop.Stats().ActiveFlows != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	s := pop.Stats()
	if s.ActiveFlows != 0 {
		t.Fatalf("idle flow survived %v with no traffic (ActiveFlows=%d)", time.Second, s.ActiveFlows)
	}
	if s.Purged < 1 {
		t.Fatalf("Purged = %d, want >= 1", s.Purged)
	}
}

// TestProbesSentExcludesSendErrors: a destination whose socket writes
// fail deterministically (port 0 ⇒ EINVAL) must produce SendErrors, not
// ProbesSent. Pre-fix every failed write still bumped ProbesSent, so a
// probe-blackout detector gated on probe output saw a broken socket as
// "probing fine, replies absent" — or worse, suppressed a real alert.
func TestProbesSentExcludesSendErrors(t *testing.T) {
	edge, err := NewEdge(EdgeConfig{
		ProbeInterval: 10 * time.Millisecond,
		Destinations: []tmproto.Destination{
			{Addr: netip.MustParseAddr("127.0.0.1"), Port: 0, PoP: 9},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && edge.Stats().SendErrors < 3 {
		time.Sleep(5 * time.Millisecond)
	}
	s := edge.Stats()
	if s.SendErrors < 3 {
		t.Fatalf("SendErrors = %d, want >= 3 (port-0 sends should fail)", s.SendErrors)
	}
	if s.ProbesSent != 0 {
		t.Fatalf("ProbesSent = %d for a destination whose every send failed", s.ProbesSent)
	}
}
