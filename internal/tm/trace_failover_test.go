package tm

// Acceptance test for the failover trace chain: a single TM failover,
// triggered by a chaos-generated fault schedule, must produce ONE
// connected trace — edge probe silence → dead detection → re-selection
// → flow re-pin → PoP re-home — with the PoP side stitched in via trace
// context on the wire, and the whole thing exportable as valid Chrome
// trace-event JSON.

import (
	"bytes"
	"testing"
	"time"

	"painter/internal/chaos"
	"painter/internal/cloud"
	"painter/internal/netsim"
	"painter/internal/netsim/emul"
	"painter/internal/obs/span"
	"painter/internal/tmproto"
	"painter/internal/topology"
)

// chaosTrigger generates a deterministic fault schedule and returns its
// first peering-down event — the injection that kills the edge's
// selected path below. Using the chaos generator (rather than a bare
// SetDown) keeps the trigger on the same code path the failover
// experiments use.
func chaosTrigger(t *testing.T) netsim.Event {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Seed: 11, Tier1: 3, Tier2: 12, Stubs: 80,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3,
		EnterpriseFrac: 0.35, ContentFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{
		Name: "chaos", PoPMetros: 8, PeerFrac: 0.75, TransitProviders: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := chaos.Generate(g, d, chaos.DefaultGenConfig(20260806))
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range sched {
		if se.Ev.Kind == netsim.EventPeeringDown {
			return se.Ev
		}
	}
	t.Fatal("chaos schedule contains no peering-down event")
	return netsim.Event{}
}

// findRec returns the records with the given name and trace ID.
func findRecs(recs []span.Record, name string, trace uint64) []span.Record {
	var out []span.Record
	for _, r := range recs {
		if r.Name == name && r.TraceID == trace {
			out = append(out, r)
		}
	}
	return out
}

func TestFailoverProducesConnectedTrace(t *testing.T) {
	edgeTr := span.New(span.Config{Seed: 101, Sample: 1, Process: "tm-edge"})
	popTr := span.New(span.Config{Seed: 202, Sample: 1, Process: "tm-pop"})

	// One PoP behind two tunnels of different latency — the §3.2 anycast
	// + unicast pair. Killing the selected tunnel re-pins the flow onto
	// the survivor, and the PoP sees it arrive from a new edge address.
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1, Tracer: popTr})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	linkA, err := emul.NewLink(pop.Addr(), 3*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer linkA.Close()
	linkB, err := emul.NewLink(pop.Addr(), 9*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer linkB.Close()
	destA, destB := destFor(linkA, 1), destFor(linkB, 1)

	echoed := make(chan struct{}, 16)
	events := make(chan Event, 256)
	cfg := DefaultEdgeConfig()
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.MinFailureTimeout = 30 * time.Millisecond
	cfg.Destinations = []tmproto.Destination{destA, destB}
	cfg.Tracer = edgeTr
	cfg.OnReturn = func(tmproto.FlowKey, []byte) {
		select {
		case echoed <- struct{}{}:
		default:
		}
	}
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

	// Pin a flow through the fast tunnel.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if d, ok := edge.Selected(); ok && d.Port == destA.Port {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("edge never selected the fast tunnel")
		}
		time.Sleep(2 * time.Millisecond)
	}
	flow := flowKey(7001)
	if err := edge.Send(flow, []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-echoed:
	case <-time.After(2 * time.Second):
		t.Fatal("pinned flow never echoed")
	}

	// Inject the chaos-scheduled fault: the first generated peering-down
	// maps onto the tunnel the edge selected.
	if ev := chaosTrigger(t); ev.Kind != netsim.EventPeeringDown {
		t.Fatalf("unexpected trigger %+v", ev)
	}
	linkA.SetDown(true)

	deadEv := waitEvent(t, events, 5*time.Second, "dest-dead", func(ev Event) bool {
		return ev.Kind == EventDestDead
	})
	if !deadEv.Trace.Valid() {
		t.Error("dest-dead event carries no trace context")
	}
	selEv := waitEvent(t, events, 5*time.Second, "reselection", func(ev Event) bool {
		return ev.Kind == EventSelected && ev.Dest.Port == destB.Port
	})
	if selEv.Trace.TraceID != deadEv.Trace.TraceID {
		t.Errorf("reselect trace %016x != dead trace %016x",
			selEv.Trace.TraceID, deadEv.Trace.TraceID)
	}

	// The next send re-pins the flow; the data packet carries the re-pin
	// span's context, so the PoP's re-home stitches into the same trace.
	if err := edge.Send(flow, []byte("repinned")); err != nil {
		t.Fatal(err)
	}
	trace := deadEv.Trace.TraceID
	deadline = time.Now().Add(3 * time.Second)
	for len(findRecs(popTr.Recorder().Snapshot(), "tm.pop.rehome", trace)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("PoP never recorded the re-home span")
		}
		time.Sleep(5 * time.Millisecond)
	}

	edgeRecs := edgeTr.Recorder().Snapshot()
	popRecs := popTr.Recorder().Snapshot()

	roots := findRecs(edgeRecs, "tm.edge.failover", trace)
	if len(roots) != 1 {
		t.Fatalf("want exactly one failover root in trace %016x, got %d", trace, len(roots))
	}
	root := roots[0]
	if root.ParentID != 0 {
		t.Errorf("failover root has parent %016x", root.ParentID)
	}
	// Every edge-side stage hangs directly off the root.
	var repinID uint64
	for _, name := range []string{"tm.edge.probe", "tm.edge.dead", "tm.edge.reselect", "tm.edge.repin"} {
		recs := findRecs(edgeRecs, name, trace)
		if len(recs) == 0 {
			t.Errorf("trace %016x missing stage %s", trace, name)
			continue
		}
		for _, r := range recs {
			if r.ParentID != root.SpanID {
				t.Errorf("%s parent %016x, want root %016x", name, r.ParentID, root.SpanID)
			}
		}
		if name == "tm.edge.repin" {
			repinID = recs[0].SpanID
		}
	}
	// The PoP-side tail is parented on the re-pin span it rode in on.
	rehomes := findRecs(popRecs, "tm.pop.rehome", trace)
	if len(rehomes) != 1 {
		t.Fatalf("want one re-home span, got %d", len(rehomes))
	}
	if rehomes[0].ParentID != repinID {
		t.Errorf("re-home parent %016x, want repin span %016x", rehomes[0].ParentID, repinID)
	}

	// The merged chain exports as valid Chrome trace-event JSON.
	var chain []span.Record
	for _, r := range append(append([]span.Record(nil), edgeRecs...), popRecs...) {
		if r.TraceID == trace {
			chain = append(chain, r)
		}
	}
	if len(chain) < 5 {
		t.Fatalf("connected chain has only %d spans", len(chain))
	}
	for _, r := range chain {
		t.Logf("%-18s start=%dµs dur=%dµs attrs=%v", r.Name, r.StartNs/1e3, r.DurNs/1e3, r.Attrs)
	}
	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, "tm-failover", chain); err != nil {
		t.Fatal(err)
	}
	ct, err := span.ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported failover trace is not valid Chrome JSON: %v", err)
	}
	// 1 metadata event + the chain.
	if got := len(ct.TraceEvents); got != len(chain)+1 {
		t.Errorf("export has %d events, want %d", got, len(chain)+1)
	}
}
