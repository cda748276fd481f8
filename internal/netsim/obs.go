package netsim

// Observability: every World carries an obs.Registry so cache
// efficiency and the simulation clock are inspectable in one place.
// Counters are lock-free atomics; the only hot path they touch
// (prefScore) sits behind the TieBreaker's per-goroutine memo, so the
// steady-state cost is one atomic add per world-cache lookup — nothing
// per propagated route.

import "painter/internal/obs"

// worldObs bundles the world's metric handles. All fields are nil-safe
// obs metrics: a zero worldObs (possible only for a World built outside
// New/NewWithConfig) silently no-ops.
type worldObs struct {
	reg *obs.Registry

	resolveHits  *obs.Counter
	resolveMiss  *obs.Counter
	resolveInval *obs.Counter
	resolveDelta *obs.Counter
	resolveFull  *obs.Counter

	prefHits  *obs.Counter
	prefMiss  *obs.Counter
	prefInval *obs.Counter

	bestHits *obs.Counter
	bestMiss *obs.Counter

	day *obs.Gauge
}

// newWorldObs registers the netsim metric families on a fresh registry.
func newWorldObs() worldObs {
	r := obs.NewRegistry()
	return worldObs{
		reg: r,

		resolveHits:  r.Counter("netsim_resolve_cache_hits_total", "propagation-cache hits in ResolveIngress"),
		resolveMiss:  r.Counter("netsim_resolve_cache_misses_total", "propagation-cache misses in ResolveIngress"),
		resolveInval: r.Counter("netsim_resolve_cache_invalidations_total", "propagation-cache entries dropped by SetDay or events"),
		resolveDelta: r.Counter("netsim_resolve_delta_total", "resolve misses served by delta propagation from a cached base"),
		resolveFull:  r.Counter("netsim_resolve_full_total", "resolve misses served by a full whole-graph propagation"),

		prefHits:  r.Counter("netsim_prefscore_cache_hits_total", "hidden-preference memo hits"),
		prefMiss:  r.Counter("netsim_prefscore_cache_misses_total", "hidden-preference memo misses"),
		prefInval: r.Counter("netsim_prefscore_cache_invalidations_total", "hidden-preference memo entries dropped by SetDay or pref flips"),

		bestHits: r.Counter("netsim_best_ingress_cache_hits_total", "BestIngressLatency memo hits"),
		bestMiss: r.Counter("netsim_best_ingress_cache_misses_total", "BestIngressLatency memo misses"),

		day: r.Gauge("netsim_day", "current simulation day"),
	}
}

// Obs returns the world's metrics registry (nil for a zero World).
func (w *World) Obs() *obs.Registry { return w.obs.reg }

// CacheStats is a point-in-time snapshot of the world-cache counters
// the benchmark reads; the other cache counters are on the registry
// (Obs). All counters are cumulative since world creation; invalidation
// never resets hits/misses.
type CacheStats struct {
	ResolveHits          uint64
	ResolveMisses        uint64
	ResolveInvalidations uint64
	// ResolveDeltaRuns + ResolveFullRuns partition the misses that ran a
	// propagation (errors before propagation are in neither).
	ResolveDeltaRuns uint64
	ResolveFullRuns  uint64

	PrefScoreMisses uint64
}

// CacheStats snapshots those counters from the obs registry.
func (w *World) CacheStats() CacheStats {
	m := &w.obs
	return CacheStats{
		ResolveHits:          m.resolveHits.Value(),
		ResolveMisses:        m.resolveMiss.Value(),
		ResolveInvalidations: m.resolveInval.Value(),
		ResolveDeltaRuns:     m.resolveDelta.Value(),
		ResolveFullRuns:      m.resolveFull.Value(),

		PrefScoreMisses: m.prefMiss.Value(),
	}
}
