package tm

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"painter/internal/obs"
	"painter/internal/tmproto"
)

// TestStatsReadRegistry: Stats and the registry are one set of
// counters. After mixed traffic — echoed data, a destination death, a
// flow re-pin and a malformed datagram — every EdgeStats and PoPStats
// field equals the metric it is exported as.
func TestStatsReadRegistry(t *testing.T) {
	edgeReg := obs.NewRegistry()
	var echoes atomic.Uint64
	r := newRigCfg(t, 2*time.Millisecond, 6*time.Millisecond,
		func(tmproto.FlowKey, []byte) { echoes.Add(1) },
		func(c *EdgeConfig) { c.Obs = edgeReg })
	r.waitSelected(t, 1, 3*time.Second)
	flow := flowKey(7000)
	waitEchoes := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) && echoes.Load() < n {
			time.Sleep(2 * time.Millisecond)
		}
		if echoes.Load() < n {
			t.Fatalf("%d echoes, want %d", echoes.Load(), n)
		}
	}
	for i := 0; i < 3; i++ {
		if err := r.edge.Send(flow, []byte("via A")); err != nil {
			t.Fatal(err)
		}
	}
	waitEchoes(3)

	r.linkA.SetDown(true)
	waitEvent(t, r.events, 2*time.Second, "dest-dead", func(ev Event) bool {
		return ev.Kind == EventDestDead && ev.Dest.PoP == 1
	})
	r.waitSelected(t, 2, 2*time.Second)
	if err := r.edge.Send(flow, []byte("via B")); err != nil {
		t.Fatal(err)
	}
	waitEchoes(4)

	conn, err := netDial(r.popB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && r.popB.Stats().Malformed == 0 {
		time.Sleep(2 * time.Millisecond)
	}

	// Closing stops every reader, prober and worker, so the counters
	// are final when read.
	r.edge.Close()
	r.popA.Close()
	r.popB.Close()
	es := r.edge.Stats()
	if es.RepinnedFlows != 1 || es.Failovers == 0 || r.popB.Stats().Malformed != 1 {
		t.Fatalf("traffic missed a death, repin or malformed datagram: edge %+v, pop B %+v", es, r.popB.Stats())
	}
	edgeNames := map[string]string{
		"ProbesSent":    "tm_edge_probes_sent_total",
		"RepliesRcvd":   "tm_edge_probe_replies_total",
		"DataSent":      "tm_edge_data_sent_total",
		"DataRcvd":      "tm_edge_data_rcvd_total",
		"Failovers":     "tm_edge_failovers_total",
		"RepinnedFlows": "tm_edge_repinned_flows_total",
		"SendErrors":    "tm_edge_send_errors_total",
	}
	popNames := map[string]string{
		"DataIn":         "tm_pop_data_in_total",
		"DataOut":        "tm_pop_data_out_total",
		"Probes":         "tm_pop_probes_total",
		"Resolves":       "tm_pop_resolves_total",
		"ActiveFlows":    "tm_pop_active_flows",
		"Malformed":      "tm_pop_malformed_total",
		"DroppedReplies": "tm_pop_dropped_replies_total",
		"OverloadWaits":  "tm_pop_overload_waits_total",
	}
	statsMatchRegistry(t, "EdgeStats", es, edgeReg, edgeNames)
	statsMatchRegistry(t, "PoPStats A", r.popA.Stats(), r.obsA, popNames)
	statsMatchRegistry(t, "PoPStats B", r.popB.Stats(), r.obsB, popNames)
}

// statsMatchRegistry checks every field of the stats struct against the
// metric names maps it to. A field without an entry fails, so a new
// Stats field must name its metric.
func statsMatchRegistry(t *testing.T, what string, stats any, reg *obs.Registry, names map[string]string) {
	t.Helper()
	snap := reg.Snapshot()
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		name, ok := names[field]
		if !ok {
			t.Errorf("%s.%s has no metric in the test's table", what, field)
			continue
		}
		var got float64
		if f := v.Field(i); f.CanUint() {
			got = float64(f.Uint())
		} else {
			got = float64(f.Int())
		}
		scraped, ok := snap.Gauges[name]
		if c, isCounter := snap.Counters[name]; isCounter {
			scraped, ok = float64(c), true
		}
		if !ok {
			t.Errorf("%s.%s: registry has no %s", what, field, name)
		} else if got != scraped {
			t.Errorf("%s.%s = %v, registry reads %s = %v", what, field, got, name, scraped)
		}
	}
}
