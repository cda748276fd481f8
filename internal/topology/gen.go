package topology

import (
	"fmt"
	"math/rand"

	"painter/internal/geo"
	"painter/internal/stats"
)

// GenConfig parameterizes the synthetic Internet generator.
type GenConfig struct {
	Seed int64

	// Tier1 is the number of transit-free backbone ASes (global presence,
	// full peering mesh). Real Internet: ~15-20.
	Tier1 int
	// Tier2 is the number of regional/national transit providers.
	Tier2 int
	// Stubs is the number of edge ASes (enterprises, eyeballs, content).
	Stubs int

	// MeanStubProviders is the average multihoming degree of stub ASes.
	// The paper notes most networks have 2-3 ISPs (§5.2.4).
	MeanStubProviders float64
	// Tier2PeerProb is the probability two same-region tier-2s peer.
	Tier2PeerProb float64
	// EnterpriseFrac / ContentFrac split stubs by kind; the remainder are
	// eyeball networks.
	EnterpriseFrac float64
	ContentFrac    float64
}

// Validate checks the config for obviously unusable values.
func (c GenConfig) Validate() error {
	if c.Tier1 < 2 {
		return fmt.Errorf("topology: need >=2 tier-1 ASes, got %d", c.Tier1)
	}
	if c.Tier2 < 2 {
		return fmt.Errorf("topology: need >=2 tier-2 ASes, got %d", c.Tier2)
	}
	if c.Stubs < 1 {
		return fmt.Errorf("topology: need >=1 stub, got %d", c.Stubs)
	}
	if c.MeanStubProviders < 1 {
		return fmt.Errorf("topology: MeanStubProviders %v < 1", c.MeanStubProviders)
	}
	if c.EnterpriseFrac < 0 || c.ContentFrac < 0 || c.EnterpriseFrac+c.ContentFrac > 1 {
		return fmt.Errorf("topology: bad stub kind fractions")
	}
	return nil
}

// Generate builds a synthetic AS graph:
//
//   - Tier-1 ASes form a full peering mesh and are present in most metros.
//   - Tier-2 ASes pick a home region, cover several of its metros, buy
//     transit from 1–3 tier-1s, and peer with some same-region tier-2s
//     plus occasional cross-region peers (modeling IXPs and PNIs).
//   - Stub ASes live in one metro (eyeballs/enterprises) or several
//     (content) and multihome to tier-2s/tier-1s present in their metro.
//
// ASNs are assigned deterministically: tier-1s from 1, tier-2s from 1000,
// stubs from 10000.
func Generate(cfg GenConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := NewGraph()
	metros := geo.Metros()
	regions := geo.Regions()

	// --- Tier-1: global backbones.
	t1 := make([]ASN, cfg.Tier1)
	for i := range t1 {
		t1[i] = ASN(1 + i)
		// Present in a large random subset of metros (60-90%).
		var pres []string
		for _, m := range metros {
			if rng.Float64() < 0.6+0.3*rng.Float64() {
				pres = append(pres, m.Code)
			}
		}
		if len(pres) == 0 {
			pres = []string{metros[0].Code}
		}
		if err := g.AddAS(&AS{ASN: t1[i], Tier: TierOne, Kind: KindTransit, Metros: pres}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < len(t1); i++ {
		for j := i + 1; j < len(t1); j++ {
			if err := g.Link(t1[i], t1[j], RelPeer); err != nil {
				return nil, err
			}
		}
	}

	// --- Tier-2: regional transit.
	t2 := make([]ASN, cfg.Tier2)
	t2Region := make([]geo.Region, cfg.Tier2)
	t2ByRegion := make(map[geo.Region][]int)
	for i := range t2 {
		t2[i] = ASN(1000 + i)
		region := regions[rng.Intn(len(regions))]
		t2Region[i] = region
		t2ByRegion[region] = append(t2ByRegion[region], i)
		rm := geo.MetrosInRegion(region)
		// Cover 40-100% of the region's metros plus a couple of remote
		// metros (long-haul presence).
		var pres []string
		for _, m := range rm {
			if rng.Float64() < 0.4+0.6*rng.Float64() {
				pres = append(pres, m.Code)
			}
		}
		if len(pres) == 0 {
			pres = []string{rm[rng.Intn(len(rm))].Code}
		}
		for k := 0; k < 2; k++ {
			if rng.Float64() < 0.3 {
				pres = append(pres, metros[rng.Intn(len(metros))].Code)
			}
		}
		pres = dedupe(pres)
		if err := g.AddAS(&AS{ASN: t2[i], Tier: TierTwo, Kind: KindTransit, Metros: pres}); err != nil {
			return nil, err
		}
		// 1-3 tier-1 providers (clamped to however many exist).
		nProv := 1 + rng.Intn(3)
		if nProv > len(t1) {
			nProv = len(t1)
		}
		for _, pi := range rng.Perm(len(t1))[:nProv] {
			if err := g.Link(t1[pi], t2[i], RelCustomer); err != nil {
				return nil, err
			}
		}
	}
	// Tier-2 peering: same-region with probability Tier2PeerProb,
	// cross-region with 1/10th of that.
	for i := 0; i < len(t2); i++ {
		for j := i + 1; j < len(t2); j++ {
			p := cfg.Tier2PeerProb / 10
			if t2Region[i] == t2Region[j] {
				p = cfg.Tier2PeerProb
			}
			if rng.Float64() < p {
				if err := g.Link(t2[i], t2[j], RelPeer); err != nil {
					return nil, err
				}
			}
		}
	}

	// --- Stubs.
	metroWeights := make([]float64, len(metros))
	for i, m := range metros {
		metroWeights[i] = m.Weight
	}
	nextASN := ASN(10000)
	for s := 0; s < cfg.Stubs; s++ {
		mi, err := stats.SampleWeighted(rng, metroWeights)
		if err != nil {
			return nil, err
		}
		home := metros[mi]
		kind := KindEyeball
		r := rng.Float64()
		switch {
		case r < cfg.EnterpriseFrac:
			kind = KindEnterprise
		case r < cfg.EnterpriseFrac+cfg.ContentFrac:
			kind = KindContent
		}
		pres := []string{home.Code}
		if kind == KindContent {
			// Content networks deploy in several metros.
			for k := 0; k < 3; k++ {
				pres = append(pres, metros[rng.Intn(len(metros))].Code)
			}
			pres = dedupe(pres)
		}
		asn := nextASN
		nextASN++
		if err := g.AddAS(&AS{ASN: asn, Tier: TierStub, Kind: kind, Metros: pres}); err != nil {
			return nil, err
		}

		// Providers: prefer tier-2s present in the home metro; fall back
		// to same-region tier-2s, then any tier-1.
		var candidates []ASN
		for i2, n := range t2 {
			if g.AS(n).PresentIn(home.Code) {
				candidates = append(candidates, n)
				_ = i2
			}
		}
		if len(candidates) == 0 {
			for _, i2 := range t2ByRegion[home.Region] {
				candidates = append(candidates, t2[i2])
			}
		}
		if len(candidates) == 0 {
			candidates = append(candidates, t1...)
		}
		nProv := providersFor(rng, cfg.MeanStubProviders)
		if nProv > len(candidates) {
			nProv = len(candidates)
		}
		for _, ci := range rng.Perm(len(candidates))[:nProv] {
			if err := g.Link(candidates[ci], asn, RelCustomer); err != nil {
				return nil, err
			}
		}
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topology: generated graph invalid: %w", err)
	}
	return g, nil
}

// providersFor draws a multihoming degree with the requested mean:
// floor(mean) plus a Bernoulli for the fractional part, minimum 1.
func providersFor(rng *rand.Rand, mean float64) int {
	base := int(mean)
	frac := mean - float64(base)
	n := base
	if rng.Float64() < frac {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

func dedupe(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
