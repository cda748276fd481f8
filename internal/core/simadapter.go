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
		var rng func() float64
		if e.MeasureNoiseMs > 0 {
			rng = stats.NewRand(e.seed + 0x9e3779b9*int64(pi+1)).Float64
		}
		obs := make([]Observation, 0, e.UGs.Len())
		err := e.World.Land(peerings, e.UGs.UGs, ps, func(i int, ing bgp.IngressID, ms float64) {
			if ing == bgp.InvalidIngress {
				return
			}
			if e.MeasureNoiseMs > 0 {
				ms += rng() * e.MeasureNoiseMs
			}
			obs = append(obs, Observation{UG: e.UGs.UGs[i].ID, Prefix: pi, Ingress: ing, LatencyMs: ms})
		})
		if err != nil {
			return fmt.Errorf("core: resolve prefix %d: %w", pi, err)
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

// measureAnycast lands every UG on the implicit anycast prefix (all
// peerings) and returns their latencies in ugs order, NaN where the
// UG's AS has no route.
func measureAnycast(w *netsim.World, ugs []usergroup.UG) ([]float64, error) {
	base := make([]float64, len(ugs))
	err := w.Land(w.Deploy.AllPeeringIDs(), ugs, nil, func(i int, _ bgp.IngressID, ms float64) {
		base[i] = ms
	})
	return base, err
}

// possibleBenefit is a UG's weighted share of the One-per-Peering
// bound: its anycast latency base less the best compliant ingress's
// latency, when that is an improvement (0 otherwise).
func possibleBenefit(w *netsim.World, ug usergroup.UG, base float64) float64 {
	bl, _, err := w.BestIngressLatency(ug.ASN, ug.Metro)
	if err != nil {
		return 0
	}
	if possible := base - math.Min(bl, base); possible > 0 {
		return ug.Weight * possible
	}
	return 0
}

// SimInputs builds orchestrator Inputs backed directly by a world:
// compliance from the world's BGP view, latency estimates from the given
// estimator (or the world's base latencies when nil — prototype mode,
// where the deployment pings clients directly), and measured anycast
// latencies. UGs whose AS selects no anycast route are dropped (they
// cannot be baselined).
func SimInputs(w *netsim.World, ugs *usergroup.Set,
	est func(ug usergroup.UG, ing bgp.IngressID) (float64, bool)) (Inputs, *usergroup.Set, error) {

	base, err := measureAnycast(w, ugs.UGs)
	if err != nil {
		return Inputs{}, nil, err
	}
	anyLat := make(map[usergroup.ID]float64, ugs.Len())
	for i, ug := range ugs.UGs {
		if !math.IsNaN(base[i]) {
			anyLat[ug.ID] = base[i]
		}
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
	base, err := measureAnycast(w, ugs.UGs)
	if err != nil {
		return EvalResult{}, err
	}
	res := EvalResult{PerUG: make(map[usergroup.ID]float64, ugs.Len())}
	// Land each prefix once, in parallel across the worker pool; row p
	// of lat holds prefix p's latency per UG (NaN: no route).
	n := len(ugs.UGs)
	lat := make([]float64, len(cfg.Prefixes)*n)
	if err := parallelFor(len(cfg.Prefixes), func(p int) error {
		row := lat[p*n : (p+1)*n]
		return w.Land(cfg.Prefixes[p], ugs.UGs, nil, func(i int, _ bgp.IngressID, ms float64) {
			row[i] = ms
		})
	}); err != nil {
		return EvalResult{}, err
	}
	for i, ug := range ugs.UGs {
		if math.IsNaN(base[i]) {
			continue
		}
		best := base[i]
		for p := i; p < len(lat); p += n {
			if lat[p] < best {
				best = lat[p]
			}
		}
		imp := base[i] - best
		res.PerUG[ug.ID] = imp
		res.Benefit += ug.Weight * imp
		if imp > 1e-9 {
			res.ImprovedUGs++
		}
		res.PossibleBenefit += possibleBenefit(w, ug, base[i])
	}
	return res, nil
}
