package bgp

// Propagation instrumentation. Propagate is the single hottest function
// in the repo, so its metrics are wired deliberately: a package-level
// atomic.Pointer holds the handles, and nil (the default) means
// disabled, which costs one load and one predictable branch per
// Propagate call and nothing per route. What the instruments cost end
// to end is the benchmark's proc.trace_overhead_pct (bash bench/run.sh
// -trace 1): the same operations with tracing off, then on.

import (
	"sync/atomic"

	"painter/internal/obs"
)

// propagateMetrics bundles the Propagate metric handles.
type propagateMetrics struct {
	total   *obs.Counter
	seconds *obs.Histogram
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
		total:   r.Counter("bgp_propagate_total", "whole-graph route propagations run"),
		seconds: r.Histogram("bgp_propagate_seconds", "wall time of one Propagate call"),
	})
}
