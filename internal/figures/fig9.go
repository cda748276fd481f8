package figures

import (
	"fmt"
	"sort"

	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/dnssim"
	"painter/internal/experiments"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// GranularityBuckets are Fig. 9a's precision buckets: the share of a
// PoP's traffic each control unit moves when redirected.
var GranularityBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1.0}

// bucketOf returns the index of the smallest bucket bound >= frac.
func bucketOf(frac float64) int {
	for i, b := range GranularityBuckets {
		if frac <= b {
			return i
		}
	}
	return len(GranularityBuckets) - 1
}

// bucketLabel names a bucket for output.
func bucketLabel(i int) string {
	switch i {
	case 0:
		return "P<=0.01%"
	case 1:
		return "0.01%<P<=0.1%"
	case 2:
		return "0.1%<P<=1%"
	case 3:
		return "1%<P<=10%"
	default:
		return "10%<P<=100%"
	}
}

// Fig9aRow is the granularity distribution at one PoP (or "All") for
// one steering mechanism: fraction of traffic volume controlled at each
// bucket granularity.
type Fig9aRow struct {
	PoP       string // PoP metro or "All"
	Mechanism string // "bgp", "dns", "painter"
	Buckets   [5]float64
}

// RunFig9a computes, for the whole deployment and the top-10 PoPs by
// volume, the granularity at which BGP ((peering, user AS) groups), DNS
// (recursive resolver populations), and PAINTER (individual flows)
// control ingress traffic.
func RunFig9a(env *experiments.Env) ([]Fig9aRow, error) {
	sel, err := env.World.ResolveIngress(env.Deploy.AllPeeringIDs())
	if err != nil {
		return nil, err
	}
	// Traffic decomposition: per UG → (PoP, peering, AS, resolver).
	type popKey = cloud.PoPID
	popVol := make(map[popKey]float64)
	// bgpGroup: (pop, peering, userAS) → volume.
	type bgpKey struct {
		pop popKey
		ing int32
		asn uint32
	}
	bgpVol := make(map[bgpKey]float64)
	// dnsGroup: (pop, resolver identity) → volume. Enterprise UGs sit
	// behind one centralized corporate/ISP resolver (aggregated by
	// resolver ID); eyeball populations are served by many resolver
	// sites, each steering a bounded share of traffic — we split an
	// eyeball UG's volume into per-site groups sized so that each site
	// carries at most siteShare of total traffic, matching the paper's
	// observation that most resolvers steer 0.1–1% of a PoP's traffic.
	const siteShare = 0.0015
	type dnsKey struct {
		pop  popKey
		res  usergroup.ResolverID
		ug   usergroup.ID // 0 group key for aggregated resolvers
		site int
	}
	dnsVol := make(map[dnsKey]float64)

	for _, u := range env.UGs.UGs {
		r, ok := sel.Route(u.ASN)
		if !ok {
			continue
		}
		pop, err := env.Deploy.PoPOfPeering(r.Ingress)
		if err != nil {
			return nil, err
		}
		popVol[pop.ID] += u.Weight
		bgpVol[bgpKey{pop.ID, int32(r.Ingress), uint32(u.ASN)}] += u.Weight

		kind := topology.KindEyeball
		if as := env.Graph.AS(u.ASN); as != nil {
			kind = as.Kind
		}
		if kind == topology.KindEnterprise {
			// Centralized corporate/ISP DNS: whole-resolver granularity.
			dnsVol[dnsKey{pop: pop.ID, res: u.Resolver}] += u.Weight
			continue
		}
		sites := int(u.Weight/siteShare) + 1
		if sites > 64 {
			sites = 64
		}
		per := u.Weight / float64(sites)
		for s := 0; s < sites; s++ {
			dnsVol[dnsKey{pop: pop.ID, res: u.Resolver, ug: u.ID, site: s}] += per
		}
	}

	// Rank PoPs by volume, keep top 10.
	type pv struct {
		id  popKey
		vol float64
	}
	var ranked []pv
	for id, v := range popVol {
		ranked = append(ranked, pv{id, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].vol != ranked[j].vol {
			return ranked[i].vol > ranked[j].vol
		}
		return ranked[i].id < ranked[j].id
	})
	if len(ranked) > 10 {
		ranked = ranked[:10]
	}

	var out []Fig9aRow
	scopes := append([]pv{{id: -1}}, ranked...) // -1 = All
	for _, scope := range scopes {
		name := "All"
		if scope.id >= 0 {
			name = "PoP-" + env.Deploy.PoP(scope.id).Metro
		}
		inScope := func(p popKey) bool { return scope.id < 0 || p == scope.id }
		scopeVol := 0.0
		for id, v := range popVol {
			if inScope(id) {
				scopeVol += v
			}
		}
		if scopeVol == 0 {
			continue
		}

		var bgpRow, dnsRow, painterRow Fig9aRow
		bgpRow = Fig9aRow{PoP: name, Mechanism: "bgp"}
		dnsRow = Fig9aRow{PoP: name, Mechanism: "dns"}
		painterRow = Fig9aRow{PoP: name, Mechanism: "painter"}

		for k, v := range bgpVol {
			if !inScope(k.pop) {
				continue
			}
			// The group's share of ITS PoP's traffic determines the
			// granularity at which a BGP change moves it.
			share := v / popVol[k.pop]
			bgpRow.Buckets[bucketOf(share)] += v / scopeVol
		}
		for k, v := range dnsVol {
			if !inScope(k.pop) {
				continue
			}
			share := v / popVol[k.pop]
			dnsRow.Buckets[bucketOf(share)] += v / scopeVol
		}
		// PAINTER controls individual flows: everything lands in the
		// finest bucket.
		painterRow.Buckets[0] = 1
		out = append(out, bgpRow, dnsRow, painterRow)
	}
	return out, nil
}

// Fig9aTable renders the granularity histogram.
func Fig9aTable(rows []Fig9aRow) Table {
	t := Table{
		Title:  "Fig 9a — traffic volume controlled at each granularity (BGP vs DNS vs PAINTER)",
		Header: []string{"scope", "mechanism", bucketLabel(0), bucketLabel(1), bucketLabel(2), bucketLabel(3), bucketLabel(4)},
	}
	for _, r := range rows {
		row := []string{r.PoP, r.Mechanism}
		for _, b := range r.Buckets {
			row = append(row, pct(b))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig9bResult compares PAINTER's per-flow steering against PAINTER
// forced to steer via DNS, at one budget.
type Fig9bResult struct {
	Budget     int
	BudgetFrac float64
	// Fractions of possible benefit.
	PainterFrac, DNSFrac float64
}

// RunFig9b solves PAINTER configs across budgets and evaluates each
// under per-flow steering and under DNS steering (§5.2.2).
func RunFig9b(env *experiments.Env, fracs []float64, iters int) ([]Fig9bResult, error) {
	if len(fracs) == 0 {
		fracs = standardBudgetFracs
	}
	nPeerings := len(env.Deploy.AllPeeringIDs())
	var out []Fig9bResult
	for _, budget := range env.Budgets(fracs) {
		params := core.DefaultParams(budget)
		params.MaxIterations = iters
		exec := core.NewWorldExecutor(env.World, env.UGs, 0.5, env.Seed+44)
		o, err := core.New(env.Inputs, exec, params)
		if err != nil {
			return nil, err
		}
		cfg, err := o.Solve()
		if err != nil {
			return nil, err
		}
		painter, err := core.Evaluate(env.World, env.UGs, cfg)
		if err != nil {
			return nil, err
		}
		latency, anycast, err := dnssim.WorldLatencyFuncs(env.World, env.UGs, cfg)
		if err != nil {
			return nil, err
		}
		assign, err := dnssim.Steer(env.UGs, cfg, latency, anycast)
		if err != nil {
			return nil, err
		}
		dnsBenefit := dnssim.SteeredBenefit(env.UGs, assign, latency, anycast)

		row := Fig9bResult{Budget: budget, BudgetFrac: float64(budget) / float64(nPeerings)}
		if painter.PossibleBenefit > 0 {
			row.PainterFrac = painter.Benefit / painter.PossibleBenefit
			row.DNSFrac = dnsBenefit / painter.PossibleBenefit
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig9bTable renders the comparison.
func Fig9bTable(rows []Fig9bResult) Table {
	t := Table{
		Title:  "Fig 9b — % of possible benefit: PAINTER vs PAINTER w/ DNS steering",
		Header: []string{"budget", "%budget", "PAINTER", "PAINTER w/ DNS"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Budget), pct(r.BudgetFrac), pct(r.PainterFrac), pct(r.DNSFrac),
		})
	}
	return t
}

// Fig8Row is one entry of the qualitative deployability × precision
// bucket chart (Fig. 8). Scores are 1-5.
type Fig8Row struct {
	Solution      string
	Deployability int
	Precision     int
	Note          string
}

// RunFig8 returns the paper's qualitative placement.
func RunFig8() []Fig8Row {
	return []Fig8Row{
		{"anycast", 5, 1, "highly deployable, no path control"},
		{"dns", 5, 2, "deployable; per-resolver, TTL-bound"},
		{"anycast+bgp-tuning", 4, 2, "slow, coarse, risky"},
		{"sd-wan-multihoming", 4, 3, "few paths (one per ISP)"},
		{"painter", 4, 5, "cloud-edge stacks: per-flow, RTT-timescale"},
		{"per-application", 2, 5, "per-app maintenance burden"},
		{"mptcp-mpquic", 2, 4, "client OS adoption required"},
		{"isp-collaboration", 1, 4, "requires per-ISP coordination"},
		{"future-internets", 1, 5, "requires new Internet architecture"},
	}
}

// Fig8Table renders Fig. 8.
func Fig8Table(rows []Fig8Row) Table {
	t := Table{
		Title:  "Fig 8 — deployability vs precision (1-5, qualitative)",
		Header: []string{"solution", "deployability", "precision", "note"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Solution, fmt.Sprintf("%d", r.Deployability), fmt.Sprintf("%d", r.Precision), r.Note,
		})
	}
	return t
}
