// Package advertise defines advertisement configurations — assignments
// of BGP prefixes to subsets of cloud peerings — and the baseline
// strategies PAINTER is compared against in §5.1.2: Anycast, One per
// PoP (with and without prefix reuse), and One per Peering. (The paper
// also tried regional prefixes to transit providers and found they
// offered little benefit; they are not modelled.)
package advertise

import (
	"fmt"
	"sort"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
)

// Config is an advertisement configuration: Prefixes[i] is the set of
// peerings prefix i is advertised over. The anycast prefix is implicit
// and always advertised via all peerings (§3: "Azure still advertises
// the anycast prefix"); configs describe only the additional PAINTER/
// baseline prefixes.
type Config struct {
	Prefixes [][]bgp.IngressID
}

// NumPrefixes returns how many (non-anycast) prefixes the config uses.
func (c Config) NumPrefixes() int { return len(c.Prefixes) }

// Clone deep-copies the config.
func (c Config) Clone() Config {
	out := Config{Prefixes: make([][]bgp.IngressID, len(c.Prefixes))}
	for i, s := range c.Prefixes {
		out.Prefixes[i] = append([]bgp.IngressID(nil), s...)
	}
	return out
}

// Validate checks that every peering exists in the deployment, no prefix
// is empty, and no prefix lists a peering twice.
func (c Config) Validate(d *cloud.Deployment) error {
	for i, s := range c.Prefixes {
		if len(s) == 0 {
			return fmt.Errorf("advertise: prefix %d has no peerings", i)
		}
		seen := make(map[bgp.IngressID]bool, len(s))
		for _, id := range s {
			if d.Peering(id) == nil {
				return fmt.Errorf("advertise: prefix %d references unknown peering %d", i, id)
			}
			if seen[id] {
				return fmt.Errorf("advertise: prefix %d lists peering %d twice", i, id)
			}
			seen[id] = true
		}
	}
	return nil
}

// TotalAdvertisements returns the number of (peering, prefix) pairs —
// the BGP table footprint knob the paper minimizes.
func (c Config) TotalAdvertisements() int {
	n := 0
	for _, s := range c.Prefixes {
		n += len(s)
	}
	return n
}

// Strategy names used in experiment output.
const (
	StrategyPainter        = "painter"
	StrategyOnePerPoP      = "one-per-pop"
	StrategyOnePerPoPReuse = "one-per-pop-reuse"
	StrategyOnePerPeering  = "one-per-peering"
)

// OnePerPeering advertises a unique prefix via each peering, up to the
// budget. Peerings are consumed round-robin across PoPs so a small
// budget still covers diverse geography (matching how the paper sweeps
// budget for this strategy).
func OnePerPeering(d *cloud.Deployment, budget int) Config {
	order := roundRobinPeerings(d)
	if budget > len(order) {
		budget = len(order)
	}
	cfg := Config{Prefixes: make([][]bgp.IngressID, 0, budget)}
	for _, id := range order[:budget] {
		cfg.Prefixes = append(cfg.Prefixes, []bgp.IngressID{id})
	}
	return cfg
}

// OnePerPoP gives each PoP its own prefix advertised via all peerings at
// that PoP, up to the budget (PoPs in ID order, which Build sorts by
// metro traffic weight).
func OnePerPoP(d *cloud.Deployment, budget int) Config {
	var cfg Config
	for _, pop := range d.PoPs {
		if len(cfg.Prefixes) >= budget {
			break
		}
		ids := d.PeeringsAt(pop.ID)
		if len(ids) == 0 {
			continue
		}
		cfg.Prefixes = append(cfg.Prefixes, append([]bgp.IngressID(nil), ids...))
	}
	return cfg
}

// OnePerPoPWithReuse groups PoPs that are pairwise at least reuseKm
// apart onto shared prefixes (greedy bin packing in PoP ID order), each
// prefix advertised via all peerings at its PoPs, up to the budget.
func OnePerPoPWithReuse(d *cloud.Deployment, budget int, reuseKm float64) Config {
	type bin struct {
		pops []cloud.PoPID
	}
	var bins []bin
	coordOf := func(id cloud.PoPID) geo.Coord { return d.PoP(id).Coord }
	for _, pop := range d.PoPs {
		if len(d.PeeringsAt(pop.ID)) == 0 {
			continue
		}
		placed := false
		for bi := range bins {
			ok := true
			for _, other := range bins[bi].pops {
				if geo.DistanceKm(pop.Coord, coordOf(other)) < reuseKm {
					ok = false
					break
				}
			}
			if ok {
				bins[bi].pops = append(bins[bi].pops, pop.ID)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, bin{pops: []cloud.PoPID{pop.ID}})
		}
	}
	if budget > len(bins) {
		budget = len(bins)
	}
	cfg := Config{Prefixes: make([][]bgp.IngressID, 0, budget)}
	for _, b := range bins[:budget] {
		var ids []bgp.IngressID
		for _, p := range b.pops {
			ids = append(ids, d.PeeringsAt(p)...)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		cfg.Prefixes = append(cfg.Prefixes, ids)
	}
	return cfg
}

// roundRobinPeerings interleaves peerings across PoPs: first peering of
// every PoP, then second of every PoP, and so on.
func roundRobinPeerings(d *cloud.Deployment) []bgp.IngressID {
	var out []bgp.IngressID
	maxLen := 0
	perPoP := make([][]bgp.IngressID, 0, len(d.PoPs))
	for _, pop := range d.PoPs {
		ids := d.PeeringsAt(pop.ID)
		perPoP = append(perPoP, ids)
		if len(ids) > maxLen {
			maxLen = len(ids)
		}
	}
	for i := 0; i < maxLen; i++ {
		for _, ids := range perPoP {
			if i < len(ids) {
				out = append(out, ids[i])
			}
		}
	}
	return out
}
