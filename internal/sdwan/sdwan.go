// Package sdwan models the SD-WAN-with-multihoming baseline of §5.2.4:
// an enterprise edge device that can steer traffic through any of the
// enterprise's ISPs (or a direct cloud peering), and the path/PoP
// counting methodology used to compare its diversity against PAINTER.
package sdwan

import (
	"fmt"
	"sort"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/netsim"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// PathCounts compares path diversity for one UG.
type PathCounts struct {
	// SDWAN is the number of paths an SD-WAN device can choose between:
	// one per enterprise ISP, plus one for a direct cloud peering.
	SDWAN int
	// SDWANPoPs is the number of distinct ingress PoPs those paths reach.
	SDWANPoPs int
	// PainterLower counts one path per policy-compliant peering at the
	// UG's candidate PoPs (what the Advertisement Orchestrator exposes).
	PainterLower int
	// PainterUpper additionally distinguishes paths by the UG's first-hop
	// ISP, modeling advertisement-attribute manipulation (prepending)
	// exposing multiple routes per peering.
	PainterUpper int
	// PainterPoPs is the number of distinct candidate PoPs with at least
	// one policy-compliant peering for the UG.
	PainterPoPs int
}

// Analyzer computes Fig. 11's quantities over a world.
type Analyzer struct {
	world *netsim.World
	// candidatePoPs per region: PoPs receiving 90% of the region's
	// anycast ingress volume.
	candidatePoPs map[string][]cloud.PoPID // keyed by metro region
	// anycastSel is the per-AS anycast route selection (default paths).
	anycastSel *bgp.Result
}

// NewAnalyzer precomputes regional candidate PoP sets: for each region,
// the smallest set of PoPs receiving at least 90% of the region's UG
// anycast traffic (the paper's filter to remove high-latency routes).
func NewAnalyzer(w *netsim.World, ugs *usergroup.Set) (*Analyzer, error) {
	sel, err := w.ResolveIngress(w.Deploy.AllPeeringIDs())
	if err != nil {
		return nil, err
	}
	// Volume per (region, PoP).
	vol := make(map[string]map[cloud.PoPID]float64)
	regTotal := make(map[string]float64)
	for _, u := range ugs.UGs {
		r, ok := sel.Route(u.ASN)
		if !ok {
			continue
		}
		pop, err := w.Deploy.PoPOfPeering(r.Ingress)
		if err != nil {
			return nil, err
		}
		region := regionOf(u.Metro)
		if vol[region] == nil {
			vol[region] = make(map[cloud.PoPID]float64)
		}
		vol[region][pop.ID] += u.Weight
		regTotal[region] += u.Weight
	}
	cand := make(map[string][]cloud.PoPID, len(vol))
	for region, popVol := range vol {
		type pv struct {
			id cloud.PoPID
			v  float64
		}
		var list []pv
		for id, v := range popVol {
			list = append(list, pv{id, v})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].v != list[j].v {
				return list[i].v > list[j].v
			}
			return list[i].id < list[j].id
		})
		var acc float64
		var ids []cloud.PoPID
		for _, e := range list {
			ids = append(ids, e.id)
			acc += e.v
			if acc >= 0.9*regTotal[region] {
				break
			}
		}
		cand[region] = ids
	}
	return &Analyzer{world: w, candidatePoPs: cand, anycastSel: sel}, nil
}

func regionOf(metro string) string {
	// Region lookup via the embedded metro DB; fall back to the metro
	// itself for unknown codes.
	if m, err := geo.MetroByCode(metro); err == nil {
		return string(m.Region)
	}
	return metro
}

// Counts computes Fig. 11a's quantities for one UG.
func (a *Analyzer) Counts(u usergroup.UG) (PathCounts, error) {
	as := a.world.Graph.AS(u.ASN)
	if as == nil {
		return PathCounts{}, fmt.Errorf("sdwan: unknown AS %v", u.ASN)
	}
	var pc PathCounts

	// SD-WAN: one path per ISP. (Direct cloud peerings would add one; our
	// deployments peer only with transit networks, so stubs have none.)
	pc.SDWAN = len(as.Providers)
	sdwanPoPs := make(map[cloud.PoPID]bool)
	for _, isp := range as.Providers {
		// Traffic shipped through this ISP enters where the ISP's own
		// anycast-selected route enters (destination-based routing).
		if r, ok := a.anycastSel.Route(isp); ok {
			if pop, err := a.world.Deploy.PoPOfPeering(r.Ingress); err == nil {
				sdwanPoPs[pop.ID] = true
			}
		}
	}
	pc.SDWANPoPs = len(sdwanPoPs)

	// PAINTER: policy-compliant peerings at the UG's regional candidate
	// PoPs.
	compliant, err := a.world.PolicyCompliant(u.ASN)
	if err != nil {
		return PathCounts{}, err
	}
	candidate := make(map[cloud.PoPID]bool)
	for _, id := range a.candidatePoPs[regionOf(u.Metro)] {
		candidate[id] = true
	}
	painterPoPs := make(map[cloud.PoPID]bool)
	for ing := range compliant {
		pop, err := a.world.Deploy.PoPOfPeering(ing)
		if err != nil {
			return PathCounts{}, err
		}
		if !candidate[pop.ID] {
			continue
		}
		pc.PainterLower++
		painterPoPs[pop.ID] = true
		// Upper bound: the UG could reach this peering via any of its
		// ISPs that yields a policy-compliant walk; prepending exposes
		// one route per such first hop (at least one exists).
		firstHops := 0
		for _, isp := range as.Providers {
			if a.world.Graph.InCone(isp, u.ASN) { // always true; ISP is provider
				firstHops++
			}
		}
		if firstHops == 0 {
			firstHops = 1
		}
		pc.PainterUpper += firstHops
	}
	pc.PainterPoPs = len(painterPoPs)
	return pc, nil
}

// AvoidanceFractions computes Fig. 11b for one UG: the maximum fraction
// of intermediate ASes on the UG's default (anycast) path that each
// approach can avoid by switching paths.
func (a *Analyzer) AvoidanceFractions(u usergroup.UG) (painter, sdwan float64, err error) {
	defaultPath := a.defaultPathASes(u.ASN)
	if len(defaultPath) == 0 {
		// Degenerate: the UG's provider is the ingress neighbor itself;
		// nothing to avoid, both approaches trivially avoid "all" of it.
		return 1, 1, nil
	}

	as := a.world.Graph.AS(u.ASN)
	compliant, err := a.world.PolicyCompliant(u.ASN)
	if err != nil {
		return 0, 0, err
	}

	// PAINTER alternatives: for each policy-compliant peering, the
	// shortest valley-free walk's AS set (approximated by the up-chain
	// through each ISP to the peering neighbor).
	best := 0.0
	for ing := range compliant {
		neighbor := a.world.Deploy.Peering(ing).PeerASN
		for _, isp := range as.Providers {
			alt := a.altPathASes(isp, neighbor)
			if alt == nil {
				continue
			}
			if f := avoidFrac(defaultPath, alt); f > best {
				best = f
			}
		}
		if best == 1 {
			break
		}
	}
	painter = best

	// SD-WAN alternatives: one per ISP, entering wherever that ISP's
	// default route enters.
	best = 0.0
	for _, isp := range as.Providers {
		r, ok := a.anycastSel.Route(isp)
		if !ok {
			continue
		}
		alt := a.pathASesFrom(isp, r)
		if f := avoidFrac(defaultPath, alt); f > best {
			best = f
		}
	}
	sdwan = best
	return painter, sdwan, nil
}

// defaultPathASes walks the anycast Via-chain from the UG's AS to the
// injection neighbor, returning intermediate ASes (excluding the UG).
func (a *Analyzer) defaultPathASes(asn topology.ASN) map[topology.ASN]bool {
	out := make(map[topology.ASN]bool)
	cur := asn
	for i := 0; i < 64; i++ {
		r, ok := a.anycastSel.Route(cur)
		if !ok {
			break
		}
		if r.Via == cur { // injection point
			out[cur] = true
			break
		}
		if cur != asn {
			out[cur] = true
		}
		cur = r.Via
	}
	delete(out, asn)
	return out
}

// pathASesFrom collects the Via-chain AS set starting at asn (inclusive)
// under the anycast selection.
func (a *Analyzer) pathASesFrom(asn topology.ASN, start bgp.Route) map[topology.ASN]bool {
	out := map[topology.ASN]bool{asn: true}
	cur := asn
	r := start
	for i := 0; i < 64; i++ {
		if r.Via == cur {
			break
		}
		cur = r.Via
		out[cur] = true
		var ok bool
		r, ok = a.anycastSel.Route(cur)
		if !ok {
			break
		}
	}
	return out
}

// altPathASes returns the AS set of the shortest up-walk from isp to the
// peering neighbor (isp's transitive provider chain until reaching an
// ancestor of the neighbor, then down). Nil when no such walk exists.
func (a *Analyzer) altPathASes(isp, neighbor topology.ASN) map[topology.ASN]bool {
	// BFS up from isp until hitting neighbor or an AS with neighbor in
	// its customer cone.
	type node struct {
		asn  topology.ASN
		prev int
	}
	nodes := []node{{isp, -1}}
	seen := map[topology.ASN]bool{isp: true}
	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		if n.asn == neighbor || a.world.Graph.InCone(n.asn, neighbor) {
			// Reconstruct the up-walk; the down-walk to the neighbor adds
			// ASes we approximate by the neighbor itself (its providers
			// carry the route internally).
			out := map[topology.ASN]bool{neighbor: true}
			for j := i; j != -1; j = nodes[j].prev {
				out[nodes[j].asn] = true
			}
			delete(out, isp) // the first hop ISP is the enterprise's own choice
			out[isp] = true  // but it is still on the path
			return out
		}
		for _, p := range a.world.Graph.AS(n.asn).Providers {
			if !seen[p] {
				seen[p] = true
				nodes = append(nodes, node{p, i})
			}
		}
	}
	return nil
}

// avoidFrac returns |default \ alt| / |default|.
func avoidFrac(def, alt map[topology.ASN]bool) float64 {
	if len(def) == 0 {
		return 1
	}
	avoided := 0
	for asn := range def {
		if !alt[asn] {
			avoided++
		}
	}
	return float64(avoided) / float64(len(def))
}
