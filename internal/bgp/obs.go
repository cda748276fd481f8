package bgp

// Propagation instrumentation. Propagate is the single hottest function
// in the repo, so its metrics are wired deliberately:
//
//   - A package-level atomic.Pointer holds the metric handles; nil (the
//     default) means disabled, and the check compiles to one load + one
//     predictable branch per Propagate call — nothing per route.
//   - Candidate/bucket accounting is per-bucket, not per-candidate, and
//     only runs when instrumentation is live.
//   - What the instruments cost is measured end to end: the benchmark's
//     traced pass (bash bench/run.sh -trace 1) reports
//     proc.trace_overhead_pct, the same operations with tracing off,
//     then on.

import (
	"sync/atomic"

	"painter/internal/obs"
)

// propagateMetrics bundles the Propagate metric handles. The delta
// engine shares the handle struct: deltaFrontier/deltaChanged are the
// catchment-size distributions the whole optimization rests on (small
// frontiers are why repair beats re-propagation).
type propagateMetrics struct {
	total      *obs.Counter
	seconds    *obs.Histogram
	candidates *obs.Histogram
	buckets    *obs.Histogram
	settled    *obs.Histogram

	deltaTotal    *obs.Counter
	deltaNoops    *obs.Counter
	deltaSeconds  *obs.Histogram
	deltaFrontier *obs.Histogram
	deltaChanged  *obs.Histogram
}

var propObs atomic.Pointer[propagateMetrics]

// InstrumentPropagate points Propagate's instrumentation at the given
// registry. Passing nil disables it again (the default state). Safe to
// call concurrently with Propagate.
func InstrumentPropagate(r *obs.Registry) {
	if r == nil {
		propObs.Store(nil)
		return
	}
	propObs.Store(&propagateMetrics{
		total:      r.Counter("bgp_propagate_total", "whole-graph route propagations run"),
		seconds:    r.Histogram("bgp_propagate_seconds", "wall time of one Propagate call"),
		candidates: r.Histogram("bgp_propagate_candidates", "candidate routes enqueued per Propagate call"),
		buckets:    r.Histogram("bgp_propagate_buckets", "maximum path-length bucket reached per Propagate call"),
		settled:    r.Histogram("bgp_propagate_settled", "ASes settled with a route per Propagate call"),

		deltaTotal:    r.Counter("bgp_propagate_delta_total", "delta propagations run (incl. no-ops)"),
		deltaNoops:    r.Counter("bgp_propagate_delta_noops", "delta propagations that returned the base unchanged"),
		deltaSeconds:  r.Histogram("bgp_propagate_delta_seconds", "wall time of one PropagateDelta call"),
		deltaFrontier: r.Histogram("bgp_propagate_delta_frontier", "seed buckets invalidated per PropagateDelta call"),
		deltaChanged:  r.Histogram("bgp_propagate_delta_changed", "ASes whose selection changed per PropagateDelta call"),
	})
}
