package figures

import (
	"fmt"

	"painter/internal/bgp"
	"painter/internal/experiments"
	"painter/internal/topology"
)

// ComplianceValidation reproduces §3.1's validation of the policy-
// compliance model: the paper derived compliant ingresses from BGP feeds
// and ProbLink-inferred customer cones, then checked them against
// millions of traceroutes, finding only 4% violations.
//
// Here the ground-truth graph plays the Internet; AS paths harvested
// from route propagation play the BGP feeds; topology.InferRelationships
// plays ProbLink; and the observed anycast selections play the
// traceroutes. A violation is an observed ingress that the inferred
// model calls non-compliant.
type ComplianceValidation struct {
	// InferenceAccuracy is the fraction of inferred relationships that
	// match ground truth.
	InferenceAccuracy float64
	// PathsHarvested is how many AS paths fed the inference.
	PathsHarvested int
	// ObservedSelections is how many (UG, ingress) observations were
	// checked.
	ObservedSelections int
	// ViolationRate is the fraction of observations whose ingress the
	// inferred compliance model rejects (paper: 4%).
	ViolationRate float64
	// MeanCompliantSetSize is the average per-AS compliant ingress count
	// under the inferred model.
	MeanCompliantSetSize float64
}

// RunComplianceValidation executes the §3.1 validation on an Env.
func RunComplianceValidation(env *experiments.Env) (ComplianceValidation, error) {
	var out ComplianceValidation

	// 1. Harvest AS paths the way BGP feeds expose them: for each
	//    advertised peering, the Via-chains of the anycast propagation.
	sel, err := env.World.ResolveIngress(env.Deploy.AllPeeringIDs())
	if err != nil {
		return out, err
	}
	var paths [][]topology.ASN
	for _, start := range env.Graph.ASNs() {
		r, ok := sel.Route(start)
		if !ok {
			continue
		}
		path := []topology.ASN{start}
		cur := start
		rr := r
		for hops := 0; hops < 32 && rr.Via != cur; hops++ {
			cur = rr.Via
			path = append(path, cur)
			var ok bool
			rr, ok = sel.Route(cur)
			if !ok {
				break
			}
		}
		if len(path) >= 2 {
			paths = append(paths, path)
		}
	}
	out.PathsHarvested = len(paths)
	if len(paths) == 0 {
		return out, fmt.Errorf("figures: no AS paths harvested")
	}

	// 2. Infer relationships (ProbLink stand-in) and rebuild a graph.
	rels := topology.InferRelationships(paths)
	out.InferenceAccuracy = topology.InferAccuracy(env.Graph, rels)
	inferred, err := topology.BuildFromInferred(rels)
	if err != nil {
		return out, err
	}

	// 3. Compliance under the inferred model, matching §3.1's two rules:
	//    an ingress is compliant if the UG's AS is in the peer's inferred
	//    customer cone (peer-class), or for transit providers, always
	//    ("we add all UGs to customer cones of Azure transit providers").
	compliantInferred := func(asn topology.ASN, ing bgp.IngressID) bool {
		pr := env.Deploy.Peering(ing)
		if pr == nil {
			return false
		}
		if pr.IsTransit() {
			return true
		}
		if !inferred.Has(pr.PeerASN) || !inferred.Has(asn) {
			return false
		}
		return inferred.InCone(pr.PeerASN, asn)
	}

	// 4. Check observed selections ("traceroutes") against the model.
	var total, violations, compliantSum int
	for _, ug := range env.UGs.UGs {
		r, ok := sel.Route(ug.ASN)
		if !ok {
			continue
		}
		total++
		if !compliantInferred(ug.ASN, r.Ingress) {
			violations++
		}
		n := 0
		for _, ing := range env.Deploy.AllPeeringIDs() {
			if compliantInferred(ug.ASN, ing) {
				n++
			}
		}
		compliantSum += n
	}
	out.ObservedSelections = total
	if total > 0 {
		out.ViolationRate = float64(violations) / float64(total)
		out.MeanCompliantSetSize = float64(compliantSum) / float64(total)
	}
	return out, nil
}

// ComplianceValidationTable renders the validation.
func ComplianceValidationTable(v ComplianceValidation) Table {
	return Table{
		Title:  "§3.1 validation — inferred compliance model vs observed routing",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"AS paths harvested", fmt.Sprintf("%d", v.PathsHarvested)},
			{"relationship inference accuracy", pct(v.InferenceAccuracy)},
			{"observed selections checked", fmt.Sprintf("%d", v.ObservedSelections)},
			{"violation rate (paper: 4%)", pct(v.ViolationRate)},
			{"mean inferred compliant set size", num(v.MeanCompliantSetSize)},
		},
	}
}
