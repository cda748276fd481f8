package core

import (
	"fmt"
	"math"
	"strconv"

	"painter/internal/advertise"
	"painter/internal/bgp"
	"painter/internal/netsim"
	"painter/internal/obs/span"
	"painter/internal/stats"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// WorldExecutor conducts advertisements inside a netsim.World: it
// propagates each prefix, resolves the ingress every UG's AS selects,
// and reports measured latencies — the simulation stand-in for issuing
// real BGP announcements and pinging clients (§5.1.1, PEERING mode).
type WorldExecutor struct {
	World *netsim.World
	UGs   *usergroup.Set
	// MeasureNoiseMs adds bounded measurement noise to reported
	// latencies (min-of-7-pings residue). 0 = exact.
	MeasureNoiseMs float64
	seed           int64
}

// NewWorldExecutor creates an executor over a world and UG set.
func NewWorldExecutor(w *netsim.World, ugs *usergroup.Set, noiseMs float64, seed int64) *WorldExecutor {
	return &WorldExecutor{World: w, UGs: ugs, MeasureNoiseMs: noiseMs, seed: seed}
}

// Execute implements Executor. Prefixes are resolved and measured in
// parallel on a bounded worker pool; observations are returned in the
// same deterministic order as a serial loop (prefix-major, then UG
// order), and measurement noise is drawn from a per-prefix RNG seeded by
// (executor seed, prefix index) so results do not depend on scheduling.
func (e *WorldExecutor) Execute(cfg Config) ([]Observation, error) {
	return e.ExecuteTraced(cfg, nil)
}

// ExecuteTraced implements TracedExecutor: each prefix resolution runs
// under its own child span of parent, which the world extends with the
// resolve-cache decision and any bgp.Propagate run. Span creation is
// goroutine-safe, so tracing composes with the parallel worker pool.
func (e *WorldExecutor) ExecuteTraced(cfg Config, parent *span.Span) ([]Observation, error) {
	perPrefix := make([][]Observation, len(cfg.Prefixes))
	err := parallelFor(len(cfg.Prefixes), func(pi int) error {
		peerings := cfg.Prefixes[pi]
		var ps *span.Span
		if parent != nil {
			ps = parent.StartChild("core.resolve_prefix",
				span.A("prefix", strconv.Itoa(pi)),
				span.A("peerings", strconv.Itoa(len(peerings))))
			defer ps.Finish()
		}
		sel, err := e.World.ResolveIngressTraced(peerings, ps)
		if err != nil {
			return fmt.Errorf("core: resolve prefix %d: %w", pi, err)
		}
		var rng func() float64
		if e.MeasureNoiseMs > 0 {
			rng = stats.NewRand(e.seed + 0x9e3779b9*int64(pi+1)).Float64
		}
		obs := make([]Observation, 0, e.UGs.Len())
		for _, ug := range e.UGs.UGs {
			r, ok := sel[ug.ASN]
			if !ok {
				continue
			}
			ms, err := e.World.LatencyMs(ug.ASN, ug.Metro, r.Ingress)
			if err != nil {
				return err
			}
			if e.MeasureNoiseMs > 0 {
				ms += rng() * e.MeasureNoiseMs
			}
			obs = append(obs, Observation{UG: ug.ID, Prefix: pi, Ingress: r.Ingress, LatencyMs: ms})
		}
		perPrefix[pi] = obs
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, o := range perPrefix {
		total += len(o)
	}
	out := make([]Observation, 0, total)
	for _, o := range perPrefix {
		out = append(out, o...)
	}
	return out, nil
}

// AnycastLatencies resolves the implicit anycast prefix (all peerings)
// and returns each UG's anycast latency and selected ingress.
func AnycastLatencies(w *netsim.World, ugs *usergroup.Set) (map[usergroup.ID]float64, map[usergroup.ID]bgp.IngressID, error) {
	sel, err := w.ResolveIngress(w.Deploy.AllPeeringIDs())
	if err != nil {
		return nil, nil, err
	}
	lat := make(map[usergroup.ID]float64, ugs.Len())
	ing := make(map[usergroup.ID]bgp.IngressID, ugs.Len())
	for _, ug := range ugs.UGs {
		r, ok := sel[ug.ASN]
		if !ok {
			continue
		}
		ms, err := w.LatencyMs(ug.ASN, ug.Metro, r.Ingress)
		if err != nil {
			return nil, nil, err
		}
		lat[ug.ID] = ms
		ing[ug.ID] = r.Ingress
	}
	return lat, ing, nil
}

// SimInputs builds orchestrator Inputs backed directly by a world:
// compliance from the world's BGP view, latency estimates from the given
// estimator (or the world's base latencies when nil — prototype mode,
// where the deployment pings clients directly), and measured anycast
// latencies. UGs whose AS selects no anycast route are dropped (they
// cannot be baselined).
func SimInputs(w *netsim.World, ugs *usergroup.Set,
	est func(ug usergroup.UG, ing bgp.IngressID) (float64, bool)) (Inputs, *usergroup.Set, error) {

	anyLat, _, err := AnycastLatencies(w, ugs)
	if err != nil {
		return Inputs{}, nil, err
	}
	covered := ugs.Subset(func(u usergroup.UG) bool { _, ok := anyLat[u.ID]; return ok })
	if covered.Len() == 0 {
		return Inputs{}, nil, fmt.Errorf("core: no UG has an anycast route")
	}
	if est == nil {
		est = func(ug usergroup.UG, ing bgp.IngressID) (float64, bool) {
			ms, err := w.BaseLatencyMs(ug.ASN, ug.Metro, ing)
			if err != nil {
				return 0, false
			}
			return ms, true
		}
	}
	in := Inputs{
		Deploy: w.Deploy,
		UGs:    covered,
		// UGs of the same AS share the world's sorted compliant row
		// directly, no per-UG map materialization.
		CompliantIDs: func(ug usergroup.UG) ([]bgp.IngressID, error) {
			return w.CompliantIngressIDs(ug.ASN)
		},
		EstLatencyMs: est,
		AnycastMs: func(ug usergroup.UG) (float64, error) {
			ms, ok := anyLat[ug.ID]
			if !ok {
				return 0, fmt.Errorf("core: UG %d has no anycast latency", ug.ID)
			}
			return ms, nil
		},
	}
	return in, covered, nil
}

// EvalResult is the ground-truth evaluation of a configuration in a
// world: realized benefit and per-UG detail.
type EvalResult struct {
	// Benefit is Eq. (1): Σ w(UG)·(anycast − achieved), ms.
	Benefit float64
	// PossibleBenefit is the One-per-Peering-complete bound: every UG at
	// its best policy-compliant ingress.
	PossibleBenefit float64
	// PerUG maps UG → achieved improvement over anycast (ms, ≥ 0).
	PerUG map[usergroup.ID]float64
	// PerUGLatency maps UG → achieved latency (ms).
	PerUGLatency map[usergroup.ID]float64
	// ImprovedUGs counts UGs with positive improvement.
	ImprovedUGs int
}

// FractionOfPossible returns Benefit/PossibleBenefit (0 when the bound
// is zero).
func (r EvalResult) FractionOfPossible() float64 {
	if r.PossibleBenefit <= 0 {
		return 0
	}
	return r.Benefit / r.PossibleBenefit
}

// Evaluate computes the true Eq. (1) benefit of a configuration in a
// world: per UG, the Traffic Manager achieves the minimum latency over
// the anycast route and every advertised prefix's selected ingress.
func Evaluate(w *netsim.World, ugs *usergroup.Set, cfg advertise.Config) (EvalResult, error) {
	anyLat, _, err := AnycastLatencies(w, ugs)
	if err != nil {
		return EvalResult{}, err
	}
	res := EvalResult{
		PerUG:        make(map[usergroup.ID]float64, ugs.Len()),
		PerUGLatency: make(map[usergroup.ID]float64, ugs.Len()),
	}
	// Resolve each prefix once, in parallel across the worker pool.
	sels := make([]map[topology.ASN]bgp.Route, len(cfg.Prefixes))
	if err := parallelFor(len(cfg.Prefixes), func(i int) error {
		sel, err := w.ResolveIngress(cfg.Prefixes[i])
		if err != nil {
			return err
		}
		sels[i] = sel
		return nil
	}); err != nil {
		return EvalResult{}, err
	}
	for _, ug := range ugs.UGs {
		base, ok := anyLat[ug.ID]
		if !ok {
			continue
		}
		best := base
		for _, sel := range sels {
			r, ok := sel[ug.ASN]
			if !ok {
				continue
			}
			ms, err := w.LatencyMs(ug.ASN, ug.Metro, r.Ingress)
			if err != nil {
				return EvalResult{}, err
			}
			if ms < best {
				best = ms
			}
		}
		imp := base - best
		res.PerUG[ug.ID] = imp
		res.PerUGLatency[ug.ID] = best
		res.Benefit += ug.Weight * imp
		if imp > 1e-9 {
			res.ImprovedUGs++
		}
		if bl, _, err := w.BestIngressLatency(ug.ASN, ug.Metro); err == nil {
			if possible := base - math.Min(bl, base); possible > 0 {
				res.PossibleBenefit += ug.Weight * possible
			}
		}
	}
	return res, nil
}
