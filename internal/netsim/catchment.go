package netsim

import (
	"fmt"

	"painter/internal/cloud"
	"painter/internal/usergroup"
)

// CatchmentAnalyzer computes the anycast catchment of a UG population:
// each PoP's share of the traffic weight that lands there when every
// peering announces the anycast prefix — the "unpredictable mappings
// from clients to PoPs" of §2.2, and what the catchment-drift detector
// judges. netsim routes a whole AS to one ingress, so each UG's weight
// lands on its AS's anycast PoP.
//
// Like the world's query methods it must not run concurrently with
// ApplyEvent/SetDay.
type CatchmentAnalyzer struct {
	w   *World
	ugs *usergroup.Set
}

// NewCatchmentAnalyzer returns an analyzer of ugs' catchment in w. The
// float argument is unused; it stays because the benchmark's probes
// (bench/probes.go) pass one.
func NewCatchmentAnalyzer(w *World, ugs *usergroup.Set, _ float64) *CatchmentAnalyzer {
	return &CatchmentAnalyzer{w: w, ugs: ugs}
}

// Close is a no-op: the analyzer holds nothing to release. It stays
// because the benchmark's probes call it.
func (a *CatchmentAnalyzer) Close() {}

// Update resolves the anycast catchment against the current world state
// (one ResolveIngress over every peering, a cache hit when nothing
// changed) and returns each PoP's share of the UG weight. PoPs no UG
// lands at are absent. A world where no UG has an anycast route (every
// PoP down) has no catchment and returns an error.
func (a *CatchmentAnalyzer) Update() (map[cloud.PoPID]float64, error) {
	res, err := a.w.ResolveIngress(a.w.Deploy.AllPeeringIDs())
	if err != nil {
		return nil, err
	}
	share := make(map[cloud.PoPID]float64)
	var total float64
	for _, u := range a.ugs.UGs {
		r, ok := res.Route(u.ASN)
		if !ok {
			continue
		}
		share[a.w.popOfIng[r.Ingress]] += u.Weight
		total += u.Weight
	}
	if len(share) == 0 {
		return nil, fmt.Errorf("netsim: no UG has an anycast route")
	}
	if total > 0 {
		for id := range share {
			share[id] /= total
		}
	}
	return share, nil
}
