package core

// Solve-loop observability: progress of the greedy allocator and the
// learning loop. All handles are nil-safe obs metrics; with no registry
// in Params the instrumented paths cost one branch and no clock reads.

import "painter/internal/obs"

// solveMetrics bundles the orchestrator's metric handles.
type solveMetrics struct {
	iterations        *obs.Counter
	prefixesPlaced    *obs.Counter
	realizedBenefit   *obs.Gauge
	solveSeconds      *obs.Histogram
	prefixGrowSeconds *obs.Histogram
}

func newSolveMetrics(r *obs.Registry) solveMetrics {
	if r == nil {
		return solveMetrics{}
	}
	return solveMetrics{
		iterations:        r.Counter("core_solve_iterations_total", "advertise-measure-learn rounds completed"),
		prefixesPlaced:    r.Counter("core_prefixes_placed_total", "prefixes allocated by the greedy inner loop"),
		realizedBenefit:   r.Gauge("core_realized_benefit_ms", "weighted realized benefit of the latest iteration (ms)"),
		solveSeconds:      r.Histogram("core_solve_seconds", "wall time of one full Solve call"),
		prefixGrowSeconds: r.Histogram("core_prefix_grow_seconds", "wall time of growing one prefix's peering set"),
	}
}

// on reports whether instrumentation is live (gates clock reads).
func (m *solveMetrics) on() bool { return m.solveSeconds != nil }

// repairMetrics bundles the continuous controller's metric handles.
type repairMetrics struct {
	events        *obs.Counter
	repairs       *obs.Counter
	fullSolves    *obs.Counter
	noops         *obs.Counter
	repairSeconds *obs.Histogram
	dirtyFraction *obs.Gauge
}

func newRepairMetrics(r *obs.Registry) repairMetrics {
	if r == nil {
		return repairMetrics{}
	}
	return repairMetrics{
		events:        r.Counter("core_controller_events_total", "netsim events consumed by the continuous controller"),
		repairs:       r.Counter("core_repairs_total", "incremental warm-start repairs performed"),
		fullSolves:    r.Counter("core_full_resolves_total", "full re-solves (dirty fraction above threshold or forced)"),
		noops:         r.Counter("core_repair_noops_total", "syncs that dirtied nothing (traffic-only or absorbed events)"),
		repairSeconds: r.Histogram("core_repair_seconds", "wall time of one controller sync that recomputed config"),
		dirtyFraction: r.Gauge("core_repair_dirty_fraction", "dirty prefixes / config prefixes at the latest sync"),
	}
}

// on reports whether instrumentation is live (gates clock reads).
func (m *repairMetrics) on() bool { return m.repairSeconds != nil }
