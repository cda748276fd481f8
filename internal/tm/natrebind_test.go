package tm

// NAT-rebinding chaos for the Traffic Manager datapath. A NAT device
// between an edge and a PoP can silently rebuild its port mappings
// (reboot, conntrack flush, CGN churn): the same inner flows suddenly
// arrive at the PoP from brand-new outer source ports. The PoP's Known
// Flows table keys NAT state by the *inner* FlowKey precisely so this is
// survivable — the entry re-homes to the new outer address and return
// traffic follows it immediately instead of blackholing to the stale
// one. This scenario drives a real edge↔PoP pair over an emul.Link,
// injects mapping resets with Link.Rebind, and measures whether that
// contract holds: flows re-home, echoes keep flowing, nothing is
// misdelivered.

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"painter/internal/netsim/emul"
	"painter/internal/obs"
	"painter/internal/tmproto"
)

// natRebindConfig parameterizes one NAT-rebind run.
type natRebindConfig struct {
	// Flows is the number of concurrent client flows kept active across
	// the rebinds.
	Flows int
	// Rebinds is how many NAT mapping resets to inject.
	Rebinds int
	// Settle is how long to keep traffic flowing after each rebind before
	// sampling (must exceed one link RTT so re-homed echoes can land).
	Settle time.Duration
	// LinkDelay is the emulated one-way delay edge↔PoP.
	LinkDelay time.Duration
	// ProbeInterval is the edge's probe cadence.
	ProbeInterval time.Duration
}

// defaultNATRebindConfig returns a configuration sized for a unit test:
// enough flows to exercise every stripe of the sharded table, small
// enough to finish in a few seconds.
func defaultNATRebindConfig() natRebindConfig {
	return natRebindConfig{
		Flows:         64,
		Rebinds:       3,
		Settle:        250 * time.Millisecond,
		LinkDelay:     2 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
	}
}

// natRebindResult is the measured outcome of one run.
type natRebindResult struct {
	Flows   int
	Rebinds int
	// MappingsDropped is the total upstream mappings the link tore down
	// across all rebinds.
	MappingsDropped int
	// FlowMoves is the PoP's count of Known Flows entries re-homed to a
	// new edge address. A correct run re-homes (close to) every flow on
	// every rebind.
	FlowMoves uint64
	// EchoesSent / EchoesRcvd measure end-to-end delivery across the
	// whole run, including the rebind windows.
	EchoesSent int
	EchoesRcvd int64
	// RcvdAfterLastRebind counts echoes delivered after the final rebind
	// — proof that return traffic followed the re-homed mappings rather
	// than the stale ones.
	RcvdAfterLastRebind int64
	// DroppedReplies is the PoP's count of replies with no live flow
	// entry; rebinds must not orphan entries.
	DroppedReplies uint64
	// DeliveredPct is EchoesRcvd/EchoesSent in percent.
	DeliveredPct float64
}

// runNATRebind executes the scenario and returns measurements.
func runNATRebind(cfg natRebindConfig) (*natRebindResult, error) {
	if cfg.Flows <= 0 || cfg.Rebinds <= 0 {
		return nil, fmt.Errorf("nat-rebind needs flows and rebinds > 0")
	}
	reg := obs.NewRegistry()
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", Obs: reg})
	if err != nil {
		return nil, err
	}
	defer pop.Close()
	link, err := emul.NewLink(pop.Addr(), cfg.LinkDelay, 11)
	if err != nil {
		return nil, err
	}
	defer link.Close()
	ap, err := netip.ParseAddrPort(link.Addr())
	if err != nil {
		return nil, err
	}

	var rcvd atomic.Int64
	ecfg := DefaultEdgeConfig()
	ecfg.ProbeInterval = cfg.ProbeInterval
	ecfg.MinFailureTimeout = 20 * cfg.ProbeInterval // rebind loss is not PoP failure
	ecfg.Destinations = []tmproto.Destination{{Addr: ap.Addr(), Port: ap.Port(), PoP: 1}}
	ecfg.OnReturn = func(tmproto.FlowKey, []byte) { rcvd.Add(1) }
	edge, err := NewEdge(ecfg)
	if err != nil {
		return nil, err
	}
	defer edge.Close()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := edge.Selected(); ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := edge.Selected(); !ok {
		return nil, fmt.Errorf("nat-rebind: destination never came alive")
	}

	res := &natRebindResult{Flows: cfg.Flows, Rebinds: cfg.Rebinds}
	keys := make([]tmproto.FlowKey, cfg.Flows)
	for i := range keys {
		keys[i] = tmproto.FlowKey{
			Proto:   17,
			Src:     netip.MustParseAddr("10.0.0.5"),
			Dst:     netip.MustParseAddr("203.0.113.9"),
			SrcPort: uint16(20000 + i),
			DstPort: 443,
		}
	}
	sendRound := func() {
		for _, k := range keys {
			if err := edge.Send(k, []byte("nat")); err == nil {
				res.EchoesSent++
			}
		}
	}
	waitRcvd := func(want int64, d time.Duration) {
		dl := time.Now().Add(d)
		for time.Now().Before(dl) && rcvd.Load() < want {
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Seed the Known Flows table and let the first round land.
	sendRound()
	waitRcvd(int64(res.EchoesSent), cfg.Settle)

	var afterLastBase int64
	for r := 0; r < cfg.Rebinds; r++ {
		res.MappingsDropped += link.Rebind()
		afterLastBase = rcvd.Load()
		// Two rounds through the rebuilt mappings: the first re-homes
		// every flow, the second must already ride the new path.
		sendRound()
		sendRound()
		waitRcvd(int64(res.EchoesSent), cfg.Settle)
	}

	res.EchoesRcvd = rcvd.Load()
	res.RcvdAfterLastRebind = res.EchoesRcvd - afterLastBase
	res.FlowMoves = reg.Snapshot().Counters["tm_pop_flow_moves_total"]
	res.DroppedReplies = pop.Stats().DroppedReplies
	if res.EchoesSent > 0 {
		res.DeliveredPct = 100 * float64(res.EchoesRcvd) / float64(res.EchoesSent)
	}
	return res, nil
}

// TestNATRebindFlowsRehome: every injected NAT mapping reset must
// re-home (not orphan) the PoP's Known Flows entries, and end-to-end
// delivery must continue through the rebuilt mappings — in particular
// after the final rebind, proving return traffic follows the new outer
// address instead of blackholing to the stale one.
func TestNATRebindFlowsRehome(t *testing.T) {
	cfg := defaultNATRebindConfig()
	res, err := runNATRebind(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MappingsDropped < cfg.Rebinds {
		t.Errorf("MappingsDropped = %d, want >= %d (one per rebind)", res.MappingsDropped, cfg.Rebinds)
	}
	// Each rebind presents every flow from a new outer port; each must
	// re-home exactly once per rebind (a lost first-round packet defers
	// the move to the second round, never skips it).
	wantMoves := uint64(cfg.Flows * cfg.Rebinds)
	if res.FlowMoves < wantMoves*9/10 {
		t.Errorf("FlowMoves = %d, want >= %d", res.FlowMoves, wantMoves*9/10)
	}
	if res.DroppedReplies != 0 {
		t.Errorf("DroppedReplies = %d: rebinds orphaned flow entries", res.DroppedReplies)
	}
	if res.RcvdAfterLastRebind < int64(cfg.Flows) {
		t.Errorf("only %d echoes delivered after the final rebind, want >= %d (a full round)",
			res.RcvdAfterLastRebind, cfg.Flows)
	}
	if res.DeliveredPct < 90 {
		t.Errorf("delivered %.1f%% of echoes across rebinds, want >= 90%%", res.DeliveredPct)
	}
}
