package tm

// Traffic Manager observability. The paper's headline TM claims are
// about time: failure detected in ~1 RTT, failover at RTT timescales,
// withdrawn prefixes probed on backoff instead of hammered. The edge
// therefore exports histograms for exactly those three durations, plus
// counters mirroring EdgeStats/PoPStats so a scrape sees what Stats()
// sees. All handles are nil-safe; an edge or PoP without a registry
// pays one branch per event.

import "painter/internal/obs"

// edgeMetrics bundles the TM-Edge metric handles.
type edgeMetrics struct {
	probeRTTMs          *obs.Histogram
	failoverDetectionMs *obs.Histogram
	backoffMs           *obs.Histogram

	probesSent  *obs.Counter
	repliesRcvd *obs.Counter
	dataSent    *obs.Counter
	dataRcvd    *obs.Counter
	failovers   *obs.Counter
	repins      *obs.Counter
	sendErrors  *obs.Counter

	events map[EventKind]*obs.Counter
}

func newEdgeMetrics(r *obs.Registry, e *Edge) edgeMetrics {
	if r == nil {
		return edgeMetrics{}
	}
	m := edgeMetrics{
		probeRTTMs:          r.Histogram("tm_edge_probe_rtt_ms", "probe round-trip time per reply (ms)"),
		failoverDetectionMs: r.Histogram("tm_edge_failover_detection_ms", "age of the oldest unanswered probe when its destination was declared dead (ms)"),
		backoffMs:           r.Histogram("tm_edge_backoff_ms", "recovery-probe backoff intervals scheduled for dead destinations (ms)"),

		probesSent:  r.Counter("tm_edge_probes_sent_total", "probes sent"),
		repliesRcvd: r.Counter("tm_edge_probe_replies_total", "probe replies received"),
		dataSent:    r.Counter("tm_edge_data_sent_total", "tunneled client payloads sent"),
		dataRcvd:    r.Counter("tm_edge_data_rcvd_total", "tunneled return payloads received"),
		failovers:   r.Counter("tm_edge_failovers_total", "selection changes away from a previously selected destination"),
		repins:      r.Counter("tm_edge_repinned_flows_total", "flows re-pinned after their destination died"),
		sendErrors:  r.Counter("tm_edge_send_errors_total", "tunnel datagrams whose socket write failed (excluded from probes-sent)"),

		events: make(map[EventKind]*obs.Counter, 4),
	}
	for _, k := range []EventKind{EventSelected, EventDestDead, EventDestAlive, EventDestQuarantined} {
		m.events[k] = r.Counter("tm_edge_events_total", "edge events emitted, by kind", obs.L("kind", k.String()))
	}
	r.GaugeFunc("tm_edge_destinations", "configured tunnel destinations", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.dests))
	})
	r.GaugeFunc("tm_edge_destinations_alive", "destinations currently alive", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		n := 0
		for _, ds := range e.dests {
			if ds.alive() {
				n++
			}
		}
		return float64(n)
	})
	return m
}

// popMetrics bundles the TM-PoP metric handles.
type popMetrics struct {
	dataIn    *obs.Counter
	dataOut   *obs.Counter
	probes    *obs.Counter
	resolves  *obs.Counter
	malformed *obs.Counter
	unknown   *obs.Counter
	flowMoves *obs.Counter
	dropped   *obs.Counter
	purged    *obs.Counter

	overloadWaits *obs.Counter
}

func newPoPMetrics(r *obs.Registry, p *PoP) popMetrics {
	if r == nil {
		return popMetrics{}
	}
	m := popMetrics{
		dataIn:    r.Counter("tm_pop_data_in_total", "tunneled client payloads received"),
		dataOut:   r.Counter("tm_pop_data_out_total", "service replies tunneled back"),
		probes:    r.Counter("tm_pop_probes_total", "probes answered"),
		resolves:  r.Counter("tm_pop_resolves_total", "resolve requests answered"),
		malformed: r.Counter("tm_pop_malformed_total", "undecodable datagrams"),
		unknown:   r.Counter("tm_pop_unknown_total", "datagrams of unknown type"),
		flowMoves: r.Counter("tm_pop_flow_moves_total", "Known Flows entries re-homed to a new edge"),
		dropped:   r.Counter("tm_pop_dropped_replies_total", "service replies with no live flow entry"),
		purged:    r.Counter("tm_pop_purged_flows_total", "idle Known Flows entries purged"),

		overloadWaits: r.Counter("tm_pop_overload_waits_total", "read batches that waited on a full service worker queue"),
	}
	r.GaugeFunc("tm_pop_active_flows", "live Known Flows entries", func() float64 {
		return float64(p.flows.Len())
	})
	return m
}
