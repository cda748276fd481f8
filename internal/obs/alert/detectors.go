package alert

// The three detectors the control plane ships with, expressed as rule
// constructors so rigs and daemons can tune the knobs without
// re-deriving series names.

// CatchmentDriftRules watches every per-PoP anycast share series
// (netsim.CatchmentGauges) against an EWMA baseline: a share moving
// more than band in one tick — a PoP suddenly absorbing or shedding
// traffic nobody asked it to — goes pending, and firing after forTicks
// consecutive ticks outside the band. This is the detection hook the
// hijack/poisoning chaos family consumes: a prefix announced by an
// attacker shows up as exactly this share shift.
func CatchmentDriftRules(band float64, warmup, forTicks int) []Rule {
	return []Rule{{
		Name:       "catchment_drift",
		Kind:       KindEWMA,
		Series:     "catchment_pop_share*",
		Alpha:      0.2,
		Band:       band,
		MinSamples: warmup,
		For:        forTicks,
	}}
}

// ConvergenceSLORules watches the continuous controller's repair
// quality per tenant: sync latency (p99 of core_repair_seconds over the
// window) above p99Secs, or a mean dirty fraction above dirtyMax —
// i.e. the controller is either slow to converge or churning most of
// the config every tick.
func ConvergenceSLORules(p99Secs, dirtyMax float64, window, forTicks int) []Rule {
	return []Rule{
		{
			Name:   "convergence_slo_latency",
			Kind:   KindThreshold,
			Series: "core_repair_seconds_p99*",
			Op:     OpGT,
			Value:  p99Secs,
			Agg:    AggMax,
			Window: window,
			For:    forTicks,
		},
		{
			Name:   "convergence_slo_dirty",
			Kind:   KindThreshold,
			Series: "core_repair_dirty_fraction*",
			Op:     OpGT,
			Value:  dirtyMax,
			Agg:    AggMean,
			Window: window,
			For:    forTicks,
		},
	}
}

// ProbeBlackoutRule watches the TM edge's probe counters: replies going
// flat over the window while sends still advance means every
// destination has gone silent at once — an ingress blackout rather
// than an idle edge.
func ProbeBlackoutRule(window, forTicks int) Rule {
	return Rule{
		Name:   "tm_probe_blackout",
		Kind:   KindAbsence,
		Series: "tm_edge_probe_replies_total",
		Gate:   "tm_edge_probes_sent_total",
		Window: window,
		For:    forTicks,
	}
}
