package netsim

// Catchment exposition: the per-PoP anycast share gauges the
// catchment-drift detector judges over. Every PoP's gauge is registered
// up front (rather than on first traffic) so the series set is stable
// from the first sample — absence of traffic reads as share 0, not as a
// missing series, and two same-seed runs expose identical series.

import (
	"strconv"

	"painter/internal/cloud"
	"painter/internal/obs"
)

// CatchmentGauges publishes a catchment's per-PoP shares (what
// CatchmentAnalyzer.Update returns) as catchment_pop_share{pop="N"}
// gauges on a registry.
type CatchmentGauges struct {
	share map[cloud.PoPID]*obs.Gauge
}

// NewCatchmentGauges registers one share gauge per PoP of the
// deployment. A nil registry yields nil-safe no-op gauges.
func NewCatchmentGauges(r *obs.Registry, d *cloud.Deployment) *CatchmentGauges {
	g := &CatchmentGauges{share: make(map[cloud.PoPID]*obs.Gauge, len(d.PoPs))}
	for _, p := range d.PoPs {
		g.share[p.ID] = r.Gauge("catchment_pop_share",
			"share of anycast traffic volume landing at this PoP",
			obs.L("pop", strconv.Itoa(int(p.ID))))
	}
	return g
}

// Set publishes one catchment's shares. PoPs absent from it (no
// traffic, or down) read as share 0. A nil share map no-ops.
func (g *CatchmentGauges) Set(share map[cloud.PoPID]float64) {
	if g == nil || share == nil {
		return
	}
	for id, gauge := range g.share {
		gauge.Set(share[id])
	}
}
