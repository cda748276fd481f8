// Package dnssim models the DNS control plane PAINTER is compared
// against: DNS-based steering of users onto prefixes with ECS (the
// "PAINTER w/ DNS" baseline of §5.2.2). The mechanics behind its
// coarseness (authoritative TTLs, recursive resolver caching and
// client-side TTL violations, §2.2) are a model only tests drive; it
// lives in cache_test.go.
package dnssim

import (
	"fmt"
	"math"
	"sort"

	"painter/internal/advertise"
	"painter/internal/bgp"
	"painter/internal/netsim"
	"painter/internal/usergroup"
)

// SteeringAssignment maps each UG to the prefix index DNS steering
// would direct it to (-1 = anycast).
type SteeringAssignment map[usergroup.ID]int

// Steer computes the DNS-steering baseline of §5.2.2: each recursive
// resolver is mapped to the single prefix with the best aggregate
// benefit for the traffic it serves, and every UG behind that resolver
// receives that prefix. Resolvers supporting ECS (the public resolvers)
// instead steer each UG (≈ /24) individually.
//
// latency(u, p) must return the true latency UG u attains on prefix p's
// selected ingress (ok=false when the prefix is unusable for u);
// anycast(u) is u's anycast latency.
func Steer(ugs *usergroup.Set, cfg advertise.Config,
	latency func(u usergroup.UG, prefix int) (float64, bool),
	anycast func(u usergroup.UG) (float64, bool)) (SteeringAssignment, error) {

	assign := make(SteeringAssignment, ugs.Len())

	// Group UGs by resolver.
	byRes := make(map[usergroup.ResolverID][]usergroup.UG)
	resByID := make(map[usergroup.ResolverID]usergroup.Resolver)
	for _, r := range ugs.Resolvers {
		resByID[r.ID] = r
	}
	for _, u := range ugs.UGs {
		byRes[u.Resolver] = append(byRes[u.Resolver], u)
	}

	bestForUG := func(u usergroup.UG) int {
		base, ok := anycast(u)
		if !ok {
			return -1
		}
		best, bestP := base, -1
		for p := range cfg.Prefixes {
			if ms, ok := latency(u, p); ok && ms < best {
				best, bestP = ms, p
			}
		}
		return bestP
	}

	resolvers := make([]usergroup.ResolverID, 0, len(byRes))
	for r := range byRes {
		resolvers = append(resolvers, r)
	}
	sort.Slice(resolvers, func(i, j int) bool { return resolvers[i] < resolvers[j] })

	for _, rid := range resolvers {
		members := byRes[rid]
		res, ok := resByID[rid]
		if !ok {
			return nil, fmt.Errorf("dnssim: resolver %d unknown", rid)
		}
		if res.Public {
			// ECS: per-UG decisions.
			for _, u := range members {
				assign[u.ID] = bestForUG(u)
			}
			continue
		}
		// One answer for the whole resolver: pick the prefix minimizing
		// the weighted mean latency of its members (anycast fallback
		// counts as the member's anycast latency).
		bestScore := math.Inf(1)
		bestP := -1
		for p := -1; p < len(cfg.Prefixes); p++ {
			var score, wsum float64
			for _, u := range members {
				base, ok := anycast(u)
				if !ok {
					continue
				}
				ms := base
				if p >= 0 {
					if v, ok := latency(u, p); ok {
						// A UG never does worse than anycast: the record
						// gives an address, but anycast remains a separate
						// service address only if the service uses it; per
						// the paper's DNS baseline the client uses what DNS
						// returned, so worse-than-anycast is possible.
						ms = v
					} else {
						ms = base
					}
				}
				score += u.Weight * ms
				wsum += u.Weight
			}
			if wsum == 0 {
				continue
			}
			score /= wsum
			if score < bestScore {
				bestScore, bestP = score, p
			}
		}
		for _, u := range members {
			assign[u.ID] = bestP
		}
	}
	return assign, nil
}

// SteeredBenefit evaluates Eq. (1) under a DNS steering assignment:
// each UG's latency is what its assigned prefix delivers (anycast when
// assigned -1 or the prefix is unusable).
func SteeredBenefit(ugs *usergroup.Set, assign SteeringAssignment,
	latency func(u usergroup.UG, prefix int) (float64, bool),
	anycast func(u usergroup.UG) (float64, bool)) float64 {

	var total float64
	for _, u := range ugs.UGs {
		base, ok := anycast(u)
		if !ok {
			continue
		}
		ms := base
		if p, ok := assign[u.ID]; ok && p >= 0 {
			if v, ok := latency(u, p); ok {
				ms = v
			}
		}
		total += u.Weight * (base - ms)
	}
	return total
}

// WorldLatencyFuncs builds the latency/anycast closures for Steer and
// SteeredBenefit from a netsim world and a configuration, landing every
// UG of ugs on the anycast prefix and on each configured prefix once.
// The closures answer for UGs of ugs only (ok=false otherwise).
func WorldLatencyFuncs(w *netsim.World, ugs *usergroup.Set, cfg advertise.Config) (
	func(u usergroup.UG, prefix int) (float64, bool),
	func(u usergroup.UG) (float64, bool),
	error) {

	pos := make(map[usergroup.ID]int, ugs.Len())
	for i, u := range ugs.UGs {
		pos[u.ID] = i
	}
	// lat[0] is the anycast prefix, lat[p+1] configured prefix p; NaN
	// marks a UG with no route.
	sets := append([][]bgp.IngressID{w.Deploy.AllPeeringIDs()}, cfg.Prefixes...)
	lat := make([][]float64, len(sets))
	for p, peerings := range sets {
		row := make([]float64, ugs.Len())
		if err := w.Land(peerings, ugs.UGs, nil, func(i int, _ bgp.IngressID, ms float64) {
			row[i] = ms
		}); err != nil {
			return nil, nil, err
		}
		lat[p] = row
	}
	lookup := func(p int, u usergroup.UG) (float64, bool) {
		i, ok := pos[u.ID]
		if !ok || math.IsNaN(lat[p][i]) {
			return 0, false
		}
		return lat[p][i], true
	}
	latency := func(u usergroup.UG, prefix int) (float64, bool) {
		if prefix < 0 || prefix >= len(cfg.Prefixes) {
			return 0, false
		}
		return lookup(prefix+1, u)
	}
	anycast := func(u usergroup.UG) (float64, bool) { return lookup(0, u) }
	return latency, anycast, nil
}
