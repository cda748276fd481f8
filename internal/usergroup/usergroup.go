// Package usergroup defines user groups (UGs) — users in the same AS and
// metropolitan area, the paper's unit of traffic aggregation (§3.1) —
// plus traffic weights and recursive-resolver assignment used by the DNS
// granularity experiments (§5.2.2).
package usergroup

import (
	"fmt"
	"math/rand"
	"sort"

	"painter/internal/geo"
	"painter/internal/stats"
	"painter/internal/topology"
)

// ID identifies a user group.
type ID int32

// UG is one user group: users of one AS in one metro.
type UG struct {
	ID    ID
	ASN   topology.ASN
	Metro string
	Coord geo.Coord
	// Weight is the UG's share of total cloud traffic volume (sums to 1
	// across a Set).
	Weight float64
	// Resolver is the recursive DNS resolver serving this UG.
	Resolver ResolverID
}

// ResolverID identifies a recursive resolver.
type ResolverID int32

// Resolver models one recursive DNS resolver.
type Resolver struct {
	ID ResolverID
	// Public marks large public DNS services (e.g. Google Public DNS)
	// that serve users far from the resolver location and support ECS.
	Public bool
}

// Set is a collection of UGs with the resolver catalog.
type Set struct {
	UGs       []UG
	Resolvers []Resolver

	// byIdx maps ID → index in UGs (-1 absent); IDs are dense from
	// Build, so a slice beats a map at azure scale.
	byIdx []int32
}

// Config parameterizes UG construction.
type Config struct {
	Seed int64
	// ZipfExponent controls traffic concentration across UGs. ~1.1
	// reproduces the heavy skew of real cloud traffic.
	ZipfExponent float64
	// PublicResolverFrac is the fraction of UGs using a public resolver
	// regardless of location. Real-world: a large minority uses Google
	// DNS / similar.
	PublicResolverFrac float64
	// ResolversPerISP is how many resolver pools each ISP operates. ISP
	// resolvers serve the ISP's customers across its whole footprint,
	// which is what makes DNS-based steering coarse (§5.2.2: LDNS serve
	// geographically disparate users).
	ResolversPerISP int
	// TargetUGs, when positive, pads the natural (stub AS, metro
	// presence) population up to this count by sampling extra
	// (stub AS, metro) pairs — a uniform stub AS crossed with a
	// population-weighted metro — deduplicated against existing pairs.
	// This models eyeball ASes whose users appear in metros beyond the
	// AS's registered presences, and is how azure-scale runs reach 10^5+
	// UGs from 10^4 ASes. 0 leaves the natural population untouched
	// (byte-identical to builds before the knob existed). The target is
	// capped at stubs × metros (the pair space).
	TargetUGs int
}

// DefaultConfig returns sensible defaults.
func DefaultConfig() Config {
	return Config{Seed: 31, ZipfExponent: 1.1, PublicResolverFrac: 0.25, ResolversPerISP: 1}
}

// Build creates one UG per (stub AS, metro presence) pair in the
// topology, assigns Zipf traffic weights (shuffled so weight does not
// correlate with ASN), and assigns each UG a recursive resolver: its
// ISP's resolver (serving that ISP's customers everywhere, hence
// geographically disparate populations) or one of a handful of public
// resolvers.
func Build(g *topology.Graph, cfg Config) (*Set, error) {
	if cfg.ZipfExponent <= 0 {
		return nil, fmt.Errorf("usergroup: ZipfExponent must be positive")
	}
	if cfg.ResolversPerISP < 1 {
		return nil, fmt.Errorf("usergroup: need >=1 resolver per ISP")
	}
	rng := stats.NewRand(cfg.Seed)

	var ugs []UG
	var id ID
	for _, n := range g.ASNs() {
		a := g.AS(n)
		if a.Tier != topology.TierStub {
			continue
		}
		for _, mc := range a.Metros {
			m, err := geo.MetroByCode(mc)
			if err != nil {
				return nil, fmt.Errorf("usergroup: AS %v: %w", n, err)
			}
			ugs = append(ugs, UG{ID: id, ASN: n, Metro: mc, Coord: m.Coord})
			id++
		}
	}
	if len(ugs) == 0 {
		return nil, fmt.Errorf("usergroup: topology has no stub ASes")
	}

	// Pad toward TargetUGs with synthetic (stub AS, metro) pairs. Guarded
	// so TargetUGs=0 consumes no RNG draws and stays byte-identical to
	// the pre-knob behavior.
	if cfg.TargetUGs > len(ugs) {
		var err error
		ugs, err = padUGs(g, ugs, cfg.TargetUGs, rng)
		if err != nil {
			return nil, err
		}
	}

	// Zipf weights assigned in shuffled order.
	weights := stats.ZipfWeights(len(ugs), cfg.ZipfExponent)
	perm := rng.Perm(len(ugs))
	for i := range ugs {
		ugs[i].Weight = weights[perm[i]]
	}

	// Resolver catalog: per-ISP pools plus 3 public resolvers.
	var resolvers []Resolver
	var rid ResolverID
	ispResolvers := make(map[topology.ASN][]ResolverID)
	for _, n := range g.ASNs() {
		a := g.AS(n)
		if a.Kind != topology.KindTransit || len(a.Metros) == 0 {
			continue
		}
		for k := 0; k < cfg.ResolversPerISP; k++ {
			resolvers = append(resolvers, Resolver{ID: rid})
			ispResolvers[n] = append(ispResolvers[n], rid)
			rid++
		}
	}
	var publicIDs []ResolverID
	for range 3 {
		resolvers = append(resolvers, Resolver{ID: rid, Public: true})
		publicIDs = append(publicIDs, rid)
		rid++
	}

	for i := range ugs {
		if rng.Float64() < cfg.PublicResolverFrac {
			ugs[i].Resolver = publicIDs[rng.Intn(len(publicIDs))]
			continue
		}
		// Use the resolver of one of the UG's ISPs.
		provs := g.AS(ugs[i].ASN).Providers
		var pool []ResolverID
		if len(provs) > 0 {
			pool = ispResolvers[provs[rng.Intn(len(provs))]]
		}
		if len(pool) == 0 {
			// AS with no transit resolver: fall back to a public one.
			ugs[i].Resolver = publicIDs[rng.Intn(len(publicIDs))]
			continue
		}
		ugs[i].Resolver = pool[rng.Intn(len(pool))]
	}

	return newSet(ugs, resolvers), nil
}

// padUGs extends ugs with synthetic (stub AS, metro) pairs until it
// reaches target (capped at the pair space): the AS is drawn uniformly
// over stubs, the metro by population weight, and pairs already present
// are rejected and redrawn.
func padUGs(g *topology.Graph, ugs []UG, target int, rng *rand.Rand) ([]UG, error) {
	var stubs []topology.ASN
	for _, n := range g.ASNs() {
		if g.AS(n).Tier == topology.TierStub {
			stubs = append(stubs, n)
		}
	}
	metros := geo.Metros()
	cum := make([]float64, len(metros))
	var total float64
	for i, m := range metros {
		total += m.Weight
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("usergroup: metro catalog has no weight")
	}
	if space := len(stubs) * len(metros); target > space {
		target = space
	}
	seen := make(map[[2]int64]bool, target)
	for _, u := range ugs {
		mi := metroIndex(metros, u.Metro)
		if mi < 0 {
			continue
		}
		seen[[2]int64{int64(u.ASN), int64(mi)}] = true
	}
	id := ID(len(ugs))
	for len(ugs) < target {
		asn := stubs[rng.Intn(len(stubs))]
		mi := sort.SearchFloat64s(cum, rng.Float64()*total)
		if mi >= len(metros) {
			mi = len(metros) - 1
		}
		key := [2]int64{int64(asn), int64(mi)}
		if seen[key] {
			continue
		}
		seen[key] = true
		m := metros[mi]
		ugs = append(ugs, UG{ID: id, ASN: asn, Metro: m.Code, Coord: m.Coord})
		id++
	}
	return ugs, nil
}

func metroIndex(metros []geo.Metro, code string) int {
	for i, m := range metros {
		if m.Code == code {
			return i
		}
	}
	return -1
}

func newSet(ugs []UG, resolvers []Resolver) *Set {
	s := &Set{
		UGs:       ugs,
		Resolvers: resolvers,
	}
	// IDs from Build are dense 0..n-1; Subset preserves original IDs, so
	// index lookups go through a slice keyed by ID when the max ID is
	// reasonable, avoiding a 10^5-entry map at azure scale.
	maxID := ID(-1)
	for i := range s.UGs {
		if s.UGs[i].ID > maxID {
			maxID = s.UGs[i].ID
		}
	}
	s.byIdx = make([]int32, maxID+1)
	for i := range s.byIdx {
		s.byIdx[i] = -1
	}
	for i := range s.UGs {
		s.byIdx[s.UGs[i].ID] = int32(i)
	}
	return s
}

// Subset returns a new Set containing only the UGs accepted by keep,
// with weights renormalized to sum to 1. The resolver catalog is shared.
func (s *Set) Subset(keep func(UG) bool) *Set {
	var ugs []UG
	var total float64
	for _, u := range s.UGs {
		if keep(u) {
			ugs = append(ugs, u)
			total += u.Weight
		}
	}
	if total > 0 {
		for i := range ugs {
			ugs[i].Weight /= total
		}
	}
	return newSet(ugs, s.Resolvers)
}

// Get returns the UG with the given ID (nil if absent).
func (s *Set) Get(id ID) *UG {
	if id < 0 || int(id) >= len(s.byIdx) || s.byIdx[id] < 0 {
		return nil
	}
	return &s.UGs[s.byIdx[id]]
}

// Len returns the number of UGs.
func (s *Set) Len() int { return len(s.UGs) }

// TotalWeight returns the sum of weights (≈1 for a full Build).
func (s *Set) TotalWeight() float64 {
	var t float64
	for _, u := range s.UGs {
		t += u.Weight
	}
	return t
}

// TopByWeight returns the n heaviest UGs (descending weight).
func (s *Set) TopByWeight(n int) []UG {
	out := append([]UG(nil), s.UGs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}
