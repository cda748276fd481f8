// Package cloud models the cloud provider's physical deployment: points
// of presence (PoPs) placed in metros, and the catalog of BGP peerings
// (peer AS × PoP) through which traffic can ingress. A Deployment is the
// static substrate both the Advertisement Orchestrator and the baselines
// advertise over.
package cloud

import (
	"fmt"
	"sort"

	"painter/internal/bgp"
	"painter/internal/geo"
	"painter/internal/stats"
	"painter/internal/topology"
)

// PoPID identifies a point of presence.
type PoPID int32

// PoP is one cloud point of presence.
type PoP struct {
	ID    PoPID
	Metro string // metro code
	Coord geo.Coord
}

// Peering is one BGP adjacency between the cloud and a neighbor AS at a
// specific PoP. Its ID doubles as the bgp.IngressID tag used in route
// propagation: if traffic enters the cloud through this adjacency, it
// ingresses at this PoP.
type Peering struct {
	ID      bgp.IngressID
	PoP     PoPID
	PeerASN topology.ASN
	// ClassAtPeer is the route class an advertisement over this peering
	// has at the neighbor: ClassCustomer when the neighbor is a transit
	// provider of the cloud (it learns the route from a customer), and
	// ClassPeer for settlement-free peers.
	ClassAtPeer bgp.RouteClass
}

// IsTransit reports whether the peering is with a transit provider of
// the cloud.
func (p Peering) IsTransit() bool { return p.ClassAtPeer == bgp.ClassCustomer }

// Deployment is the cloud's static footprint.
type Deployment struct {
	ASN      topology.ASN
	PoPs     []PoP
	Peerings []Peering

	popByID     map[PoPID]*PoP
	peeringByID map[bgp.IngressID]*Peering
	byPoP       map[PoPID][]bgp.IngressID
}

// New assembles a Deployment and indexes it. PoPs and peerings must have
// unique IDs, and every peering must reference an existing PoP.
func New(asn topology.ASN, pops []PoP, peerings []Peering) (*Deployment, error) {
	d := &Deployment{
		ASN:         asn,
		PoPs:        append([]PoP(nil), pops...),
		Peerings:    append([]Peering(nil), peerings...),
		popByID:     make(map[PoPID]*PoP, len(pops)),
		peeringByID: make(map[bgp.IngressID]*Peering, len(peerings)),
		byPoP:       make(map[PoPID][]bgp.IngressID),
	}
	for i := range d.PoPs {
		p := &d.PoPs[i]
		if _, dup := d.popByID[p.ID]; dup {
			return nil, fmt.Errorf("cloud: duplicate PoP id %d", p.ID)
		}
		// Fill missing coordinates from the metro database so hand-built
		// deployments only need metro codes.
		if p.Coord == (geo.Coord{}) {
			m, err := geo.MetroByCode(p.Metro)
			if err != nil {
				return nil, fmt.Errorf("cloud: PoP %d: %w", p.ID, err)
			}
			p.Coord = m.Coord
		}
		d.popByID[p.ID] = p
	}
	for i := range d.Peerings {
		pr := &d.Peerings[i]
		if _, dup := d.peeringByID[pr.ID]; dup {
			return nil, fmt.Errorf("cloud: duplicate peering id %d", pr.ID)
		}
		if _, ok := d.popByID[pr.PoP]; !ok {
			return nil, fmt.Errorf("cloud: peering %d references unknown PoP %d", pr.ID, pr.PoP)
		}
		if pr.ClassAtPeer != bgp.ClassCustomer && pr.ClassAtPeer != bgp.ClassPeer {
			return nil, fmt.Errorf("cloud: peering %d has invalid class %v", pr.ID, pr.ClassAtPeer)
		}
		d.peeringByID[pr.ID] = pr
		d.byPoP[pr.PoP] = append(d.byPoP[pr.PoP], pr.ID)
	}
	for _, ids := range d.byPoP {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return d, nil
}

// PoP returns the PoP with the given ID (nil if absent).
func (d *Deployment) PoP(id PoPID) *PoP { return d.popByID[id] }

// Peering returns the peering with the given ID (nil if absent).
func (d *Deployment) Peering(id bgp.IngressID) *Peering { return d.peeringByID[id] }

// PeeringsAt returns the peering IDs at a PoP (sorted).
func (d *Deployment) PeeringsAt(pop PoPID) []bgp.IngressID { return d.byPoP[pop] }

// PoPOfPeering returns the PoP hosting a peering.
func (d *Deployment) PoPOfPeering(id bgp.IngressID) (*PoP, error) {
	pr := d.peeringByID[id]
	if pr == nil {
		return nil, fmt.Errorf("cloud: unknown peering %d", id)
	}
	return d.popByID[pr.PoP], nil
}

// AllPeeringIDs returns every peering ID, sorted.
func (d *Deployment) AllPeeringIDs() []bgp.IngressID {
	out := make([]bgp.IngressID, 0, len(d.Peerings))
	for _, p := range d.Peerings {
		out = append(out, p.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Injections converts a set of peering IDs (the peerings a prefix is
// advertised over) into bgp.Injections for route propagation.
func (d *Deployment) Injections(peerings []bgp.IngressID) ([]bgp.Injection, error) {
	out := make([]bgp.Injection, 0, len(peerings))
	for _, id := range peerings {
		pr := d.peeringByID[id]
		if pr == nil {
			return nil, fmt.Errorf("cloud: unknown peering %d", id)
		}
		out = append(out, bgp.Injection{
			Neighbor: pr.PeerASN,
			Class:    pr.ClassAtPeer,
			Ingress:  pr.ID,
		})
	}
	return out, nil
}

// Profile selects a deployment size when building from a topology.
type Profile struct {
	// Name describes the profile ("azure", "peering").
	Name string
	// PoPMetros is how many metros get a PoP (the highest-weight metros
	// with transit presence are chosen first).
	PoPMetros int
	// PeerFrac is the fraction of transit ASes that have a settlement-
	// free peering relationship with the cloud at all (tier-1s always
	// do). Eligible ASes peer at every PoP metro where they are present.
	PeerFrac float64
	// TransitProviders is how many tier-1s the cloud buys transit from;
	// each provides a peering at every PoP where it is present.
	TransitProviders int
	Seed             int64
}

// AzureProfile approximates the paper's Azure numbers scaled to the
// simulator: PoPs in most major metros, peerings with most networks
// present at each PoP, several transit providers.
func AzureProfile() Profile {
	return Profile{Name: "azure", PoPMetros: 60, PeerFrac: 0.75, TransitProviders: 4, Seed: 101}
}

// PEERINGProfile approximates the PEERING/Vultr prototype: 25 PoPs.
func PEERINGProfile() Profile {
	return Profile{Name: "peering", PoPMetros: 25, PeerFrac: 0.5, TransitProviders: 3, Seed: 202}
}

// Build constructs a Deployment over a topology using a profile:
// PoPs are placed in the highest-weight metros, and at each PoP the
// cloud peers with transit ASes (tier-1/tier-2) present in that metro.
// Tier-1 peerings for the selected transit providers are customer-class
// (the cloud buys transit); everything else is settlement-free peering.
func Build(g *topology.Graph, cloudASN topology.ASN, prof Profile) (*Deployment, error) {
	if prof.PoPMetros < 1 {
		return nil, fmt.Errorf("cloud: profile needs >=1 PoP metro")
	}
	rng := stats.NewRand(prof.Seed)

	// Rank metros by weight, keeping only metros where some transit AS is
	// present (otherwise the PoP would have no peerings).
	metros := geo.Metros()
	sort.Slice(metros, func(i, j int) bool {
		if metros[i].Weight != metros[j].Weight {
			return metros[i].Weight > metros[j].Weight
		}
		return metros[i].Code < metros[j].Code
	})

	presentTransit := func(metro string) []topology.ASN {
		var out []topology.ASN
		for _, n := range g.ASNs() {
			a := g.AS(n)
			if a.Kind == topology.KindTransit && a.PresentIn(metro) {
				out = append(out, n)
			}
		}
		return out
	}

	// Pick transit providers: the tier-1s with the widest presence.
	var tier1s []topology.ASN
	for _, n := range g.ASNs() {
		if g.AS(n).Tier == topology.TierOne {
			tier1s = append(tier1s, n)
		}
	}
	sort.Slice(tier1s, func(i, j int) bool {
		mi, mj := len(g.AS(tier1s[i]).Metros), len(g.AS(tier1s[j]).Metros)
		if mi != mj {
			return mi > mj
		}
		return tier1s[i] < tier1s[j]
	})
	nt := prof.TransitProviders
	if nt > len(tier1s) {
		nt = len(tier1s)
	}
	transitSet := make(map[topology.ASN]bool, nt)
	for _, n := range tier1s[:nt] {
		transitSet[n] = true
	}

	// Peering eligibility is decided per AS, not per (AS, PoP): a network
	// either has a settlement-free relationship with the cloud (and then
	// peers wherever both are present) or it does not. This leaves a
	// realistic fraction of ISPs with no direct cloud peering, which is
	// what gives SD-WAN multihoming fewer usable paths (§5.2.4).
	eligible := make(map[topology.ASN]bool)
	for _, n := range g.ASNs() {
		a := g.AS(n)
		if a.Kind != topology.KindTransit {
			continue
		}
		if a.Tier == topology.TierOne || rng.Float64() < prof.PeerFrac {
			eligible[n] = true
		}
	}

	var pops []PoP
	var peerings []Peering
	nextPoP := PoPID(0)
	nextPeering := bgp.IngressID(0)
	for _, m := range metros {
		if len(pops) >= prof.PoPMetros {
			break
		}
		transit := presentTransit(m.Code)
		if len(transit) == 0 {
			continue
		}
		pop := PoP{ID: nextPoP, Metro: m.Code, Coord: m.Coord}
		nextPoP++
		added := 0
		for _, asn := range transit {
			isTransitProvider := transitSet[asn]
			if !isTransitProvider && !eligible[asn] {
				continue
			}
			class := bgp.ClassPeer
			if isTransitProvider {
				class = bgp.ClassCustomer
			}
			peerings = append(peerings, Peering{
				ID: nextPeering, PoP: pop.ID, PeerASN: asn, ClassAtPeer: class,
			})
			nextPeering++
			added++
		}
		if added == 0 {
			nextPoP-- // roll back: PoP with no peerings is useless
			continue
		}
		pops = append(pops, pop)
	}
	if len(pops) == 0 {
		return nil, fmt.Errorf("cloud: no viable PoP metros in topology")
	}
	return New(cloudASN, pops, peerings)
}

// Stats summarizes a deployment.
type Stats struct {
	PoPs, Peerings, Transit int
	PeersPerPoPMean         float64
}

// Stats computes deployment statistics.
func (d *Deployment) Stats() Stats {
	s := Stats{PoPs: len(d.PoPs), Peerings: len(d.Peerings)}
	for _, p := range d.Peerings {
		if p.IsTransit() {
			s.Transit++
		}
	}
	if s.PoPs > 0 {
		s.PeersPerPoPMean = float64(s.Peerings) / float64(s.PoPs)
	}
	return s
}
