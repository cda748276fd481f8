package netsim

// Test oracles: from-scratch and introspection counterparts of the
// world's incremental machinery, which the differential and
// invalidation-precision tests compare it with.

import (
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// analyzeCatchment computes the anycast catchment of a world for a UG
// population. thresholdKm <= 0 defaults to 1,000 km (the paper's "90% of
// traffic reaches a PoP within 1,000 km of the closest possible").
func analyzeCatchment(w *World, ugs *usergroup.Set, thresholdKm float64) (*Catchment, error) {
	if thresholdKm <= 0 {
		thresholdKm = 1000
	}
	res, err := w.ResolveIngress(w.Deploy.AllPeeringIDs())
	if err != nil {
		return nil, err
	}
	rows := make([]ugCatchRow, len(ugs.UGs))
	for i, u := range ugs.UGs {
		r, ok := res.Route(u.ASN)
		if rows[i], err = w.catchRow(u, r, ok); err != nil {
			return nil, err
		}
	}
	return assembleCatchment(ugs, rows, thresholdKm)
}

// bestCached reports whether BestIngressLatency has a live memo entry
// for (asn, metro) — a test hook for the invalidation-precision tests.
func (w *World) bestCached(asn topology.ASN, metro string) bool {
	ai, aok := w.idx.ID(asn)
	mo, mok := w.metroOrd[metro]
	if !aok || !mok {
		return false
	}
	w.polMu.Lock()
	defer w.polMu.Unlock()
	row := w.bestRows[ai]
	return row != nil && row[mo].set
}
