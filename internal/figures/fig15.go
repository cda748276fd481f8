package figures

import (
	"fmt"

	"painter/internal/advertise"
	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/netsim"
	"painter/internal/usergroup"
)

// prefixesToReach returns how many leading prefixes of cfg are needed to
// reach the given fraction of the deployment's possible benefit (0 when
// even the full config falls short; callers treat that as "all").
func prefixesToReach(w *netsim.World, ugs *usergroup.Set, cfg advertise.Config, frac float64) (int, error) {
	for n := 1; n <= cfg.NumPrefixes(); n++ {
		partial := advertise.Config{Prefixes: cfg.Prefixes[:n]}
		res, err := core.Evaluate(w, ugs, partial)
		if err != nil {
			return 0, err
		}
		if res.FractionOfPossible() >= frac {
			return n, nil
		}
	}
	return cfg.NumPrefixes(), nil
}

// Fig15aPoint is the prefixes required at one deployment size.
type Fig15aPoint struct {
	// PeerPct is the % of the full deployment's peerings retained.
	PeerPct  float64
	Peerings int
	// Prefixes needed for 90/95/99% of that deployment's possible
	// benefit.
	P90, P95, P99 int
}

// RunFig15a sub-samples the deployment's peerings and measures how many
// prefixes PAINTER needs for fixed benefit levels (Appendix E.2: should
// scale roughly linearly with deployment size).
func RunFig15a(env *experiments.Env, pcts []float64, iters int) ([]Fig15aPoint, error) {
	if len(pcts) == 0 {
		pcts = []float64{0.25, 0.5, 0.75, 1.0}
	}
	all := env.Deploy.AllPeeringIDs()
	var out []Fig15aPoint
	for _, frac := range pcts {
		n := int(frac * float64(len(all)))
		if n < 2 {
			n = 2
		}
		// Keep every k-th peering to retain geographic spread.
		var keep []bgp.IngressID
		for i := 0; i < n; i++ {
			keep = append(keep, all[i*len(all)/n])
		}
		sub, err := subDeployment(env.Deploy, keep)
		if err != nil {
			return nil, err
		}
		w, err := netsim.New(env.Graph, sub, env.Seed+2)
		if err != nil {
			return nil, err
		}
		in, covered, err := core.SimInputs(w, env.AllUGs, nil)
		if err != nil {
			return nil, err
		}
		params := core.DefaultParams(len(keep))
		params.MaxIterations = iters
		exec := core.NewWorldExecutor(w, covered, 0.5, env.Seed+66)
		o, err := core.New(in, exec, params)
		if err != nil {
			return nil, err
		}
		cfg, err := o.Solve()
		if err != nil {
			return nil, err
		}
		pt := Fig15aPoint{PeerPct: frac, Peerings: len(keep)}
		if pt.P90, err = prefixesToReach(w, covered, cfg, 0.90); err != nil {
			return nil, err
		}
		if pt.P95, err = prefixesToReach(w, covered, cfg, 0.95); err != nil {
			return nil, err
		}
		if pt.P99, err = prefixesToReach(w, covered, cfg, 0.99); err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// subDeployment builds a deployment containing only the kept peerings
// (PoPs left without peerings are dropped).
func subDeployment(d *cloud.Deployment, keep []bgp.IngressID) (*cloud.Deployment, error) {
	keepSet := make(map[bgp.IngressID]bool, len(keep))
	for _, id := range keep {
		keepSet[id] = true
	}
	var peerings []cloud.Peering
	usedPoPs := make(map[cloud.PoPID]bool)
	for _, pr := range d.Peerings {
		if keepSet[pr.ID] {
			peerings = append(peerings, pr)
			usedPoPs[pr.PoP] = true
		}
	}
	var pops []cloud.PoP
	for _, p := range d.PoPs {
		if usedPoPs[p.ID] {
			pops = append(pops, p)
		}
	}
	return cloud.New(d.ASN, pops, peerings)
}

// Fig15aTable renders the scaling sweep.
func Fig15aTable(rows []Fig15aPoint) Table {
	t := Table{
		Title:  "Fig 15a — prefixes required vs deployment size",
		Header: []string{"% of peerings", "peerings", "90% benefit", "95% benefit", "99% benefit"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			pct(r.PeerPct), fmt.Sprintf("%d", r.Peerings),
			fmt.Sprintf("%d", r.P90), fmt.Sprintf("%d", r.P95), fmt.Sprintf("%d", r.P99),
		})
	}
	return t
}

// Fig15bPoint is one D_reuse setting's cost/uncertainty tradeoff.
type Fig15bPoint struct {
	ReuseKm float64
	// PrefixesFor99 is the solution cost at this reuse distance.
	PrefixesFor99 int
	// UncertaintyPct is the gap between upper and estimated benefit at
	// the full configuration (fraction of possible benefit).
	UncertaintyPct float64
}

// RunFig15b sweeps D_reuse (Appendix E.2): larger reuse distances admit
// fewer incorrect assumptions (less uncertainty) but require more
// prefixes for the same benefit.
func RunFig15b(env *experiments.Env, reuses []float64, iters int) ([]Fig15bPoint, error) {
	if len(reuses) == 0 {
		reuses = []float64{500, 1000, 1500, 2000, 2500, 3000}
	}
	budget := len(env.Deploy.AllPeeringIDs())
	var out []Fig15bPoint
	for _, reuse := range reuses {
		params := core.DefaultParams(budget)
		params.ReuseKm = reuse
		params.MaxIterations = iters
		exec := core.NewWorldExecutor(env.World, env.UGs, 0.5, env.Seed+88)
		o, err := core.New(env.Inputs, exec, params)
		if err != nil {
			return nil, err
		}
		cfg, err := o.Solve()
		if err != nil {
			return nil, err
		}
		pt := Fig15bPoint{ReuseKm: reuse}
		if pt.PrefixesFor99, err = prefixesToReach(env.World, env.UGs, cfg, 0.99); err != nil {
			return nil, err
		}
		rng, err := core.EvaluateRange(env.World, env.UGs, cfg)
		if err != nil {
			return nil, err
		}
		pt.UncertaintyPct = rng.Upper - rng.Estimated
		out = append(out, pt)
	}
	return out, nil
}

// Fig15bTable renders the D_reuse tradeoff.
func Fig15bTable(rows []Fig15bPoint) Table {
	t := Table{
		Title:  "Fig 15b — D_reuse tradeoff: prefixes for 99% benefit vs benefit uncertainty",
		Header: []string{"D_reuse (km)", "prefixes@99%", "uncertainty (% possible)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			num(r.ReuseKm), fmt.Sprintf("%d", r.PrefixesFor99), pct(r.UncertaintyPct),
		})
	}
	return t
}
