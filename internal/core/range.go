package core

import (
	"math"
	"slices"

	"painter/internal/advertise"
	"painter/internal/geo"
	"painter/internal/netsim"
	"painter/internal/usergroup"
)

// RangeResult is the Fig. 6a / Fig. 14 evaluation of a configuration:
// benefit under four assumptions about which policy-compliant ingress a
// UG lands on for each prefix, expressed as fractions of the total
// possible benefit.
//
//   - Upper: every UG reaches its best advertised compliant ingress.
//   - Lower: every UG reaches its worst advertised compliant ingress.
//   - Mean: unweighted average over advertised compliant ingresses.
//   - Estimated: weighted average where heavily inflated paths (routes
//     to PoPs much farther than the nearest advertising PoP) are
//     down-weighted, per §5.1.2's inflation-probability weighting.
type RangeResult struct {
	Upper, Lower, Mean, Estimated float64
	// PossibleBenefit normalizes the fractions (ms, weighted).
	PossibleBenefit float64
}

// inflationWeight approximates the probability a UG's route is inflated
// by extraKm beyond the nearest advertising PoP: large inflation is rare
// (Koch et al. 2021; §5.1.2 "weights correspond to approximate
// probabilities that paths are inflated by corresponding amounts"),
// modeled with exponential decay per 600 km. Ingresses at the nearest
// advertising PoP itself (extra ≈ 0) keep full weight, so intra-PoP
// ingress ambiguity — the One-per-PoP problem — is not decayed away.
func inflationWeight(extraKm float64) float64 {
	if extraKm <= 0 {
		return 1
	}
	return math.Exp(-extraKm / 600)
}

// EvaluateRange computes RangeResult for a configuration over a world.
// Unlike Evaluate (which resolves the true selection), this reports the
// pre-measurement uncertainty a strategy has: any advertised, policy-
// compliant ingress could be where a UG lands. UGs pick the prefix with
// the best Mean latency (Eq. 2's selection rule), then all four
// assumptions are evaluated against that prefix choice, plus anycast as
// the fallback.
func EvaluateRange(w *netsim.World, ugs *usergroup.Set, cfg advertise.Config) (RangeResult, error) {
	anyLat, err := measureAnycast(w, ugs.UGs)
	if err != nil {
		return RangeResult{}, err
	}
	var res RangeResult
	for i, ug := range ugs.UGs {
		base := anyLat[i]
		if math.IsNaN(base) {
			continue
		}
		compliant, err := w.CompliantIngressIDs(ug.ASN)
		if err != nil {
			return RangeResult{}, err
		}

		// Per prefix: min/max/mean/estimated latency over the advertised
		// compliant ingresses. The Traffic Manager steers each flow to
		// whichever prefix serves the UG best, so each bound takes the
		// min over prefixes independently:
		//   Upper     — best ingress of any prefix (everything lands well);
		//   Lower     — the prefix with the best worst-case (the TM can
		//               always retreat to it);
		//   Mean/Est  — the prefix with the best mean / inflation-weighted
		//               mean (Eq. 2's selection rule).
		bestMean := base
		bestMin, bestMax, bestEst := base, base, base
		for _, peerings := range cfg.Prefixes {
			var lats []float64
			var dists []float64
			minDist := math.Inf(1)
			for _, ing := range peerings {
				if _, ok := slices.BinarySearch(compliant, ing); !ok {
					continue
				}
				ms, err := w.BaseLatencyMs(ug.ASN, ug.Metro, ing)
				if err != nil {
					return RangeResult{}, err
				}
				pop, err := w.Deploy.PoPOfPeering(ing)
				if err != nil {
					return RangeResult{}, err
				}
				d := geo.DistanceKm(ug.Coord, pop.Coord)
				lats = append(lats, ms)
				dists = append(dists, d)
				if d < minDist {
					minDist = d
				}
			}
			if len(lats) == 0 {
				continue
			}
			mn, mx, sum := math.Inf(1), math.Inf(-1), 0.0
			var wsum, west float64
			for i, ms := range lats {
				if ms < mn {
					mn = ms
				}
				if ms > mx {
					mx = ms
				}
				sum += ms
				wt := inflationWeight(dists[i] - minDist)
				west += wt * ms
				wsum += wt
			}
			mean := sum / float64(len(lats))
			est := west / wsum
			bestMin = math.Min(bestMin, mn)
			bestMax = math.Min(bestMax, mx)
			bestMean = math.Min(bestMean, mean)
			bestEst = math.Min(bestEst, est)
		}
		wgt := ug.Weight
		res.Mean += wgt * (base - bestMean)
		res.Upper += wgt * (base - bestMin)
		res.Lower += wgt * (base - bestMax)
		res.Estimated += wgt * (base - bestEst)

		res.PossibleBenefit += possibleBenefit(w, ug, base)
	}
	if res.PossibleBenefit > 0 {
		res.Upper /= res.PossibleBenefit
		res.Lower /= res.PossibleBenefit
		res.Mean /= res.PossibleBenefit
		res.Estimated /= res.PossibleBenefit
	}
	return res, nil
}
