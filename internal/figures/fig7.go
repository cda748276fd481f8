package figures

import (
	"fmt"
	"math"

	"painter/internal/bgp"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/topology"
)

// Fig7Point is one day of the Fig. 7 drift experiment for one budget.
type Fig7Point struct {
	Budget int
	Day    int
	// DynamicDropPct is the % of day-0 benefit lost when UGs may switch
	// prefixes daily (solid lines).
	DynamicDropPct float64
	// StaticDropPct is the loss when each UG keeps its day-0 prefix
	// choice (dashed lines).
	StaticDropPct float64
}

// RunFig7 solves a configuration on day 0 and replays it over `days` of
// latency drift and failures, comparing dynamic vs static prefix choice.
func RunFig7(env *experiments.Env, budgets []int, days, iters int) ([]Fig7Point, error) {
	defer env.World.SetDay(0)
	var out []Fig7Point
	for _, budget := range budgets {
		env.World.SetDay(0)
		params := core.DefaultParams(budget)
		params.MaxIterations = iters
		exec := core.NewWorldExecutor(env.World, env.UGs, 0.5, env.Seed+33)
		o, err := core.New(env.Inputs, exec, params)
		if err != nil {
			return nil, err
		}
		cfg, err := o.Solve()
		if err != nil {
			return nil, err
		}

		// Day-0 evaluation and per-UG prefix choice.
		res0, err := core.Evaluate(env.World, env.UGs, cfg)
		if err != nil {
			return nil, err
		}
		if res0.Benefit <= 0 {
			return nil, fmt.Errorf("figures: fig7 budget %d has no day-0 benefit", budget)
		}
		staticChoice, err := bestPrefixPerUG(env, cfg)
		if err != nil {
			return nil, err
		}

		for day := 1; day <= days; day++ {
			env.World.SetDay(day)
			resD, err := core.Evaluate(env.World, env.UGs, cfg)
			if err != nil {
				return nil, err
			}
			staticBenefit, err := staticChoiceBenefit(env, cfg, staticChoice)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig7Point{
				Budget:         budget,
				Day:            day,
				DynamicDropPct: 100 * math.Max(0, 1-resD.Benefit/res0.Benefit),
				StaticDropPct:  100 * math.Max(0, 1-staticBenefit/res0.Benefit),
			})
		}
	}
	return out, nil
}

// bestPrefixPerUG returns each UG's best prefix index (-1 = anycast) on
// the world's current day.
func bestPrefixPerUG(env *experiments.Env, cfg core.Config) (map[int32]int, error) {
	anyLat, _, err := core.AnycastLatencies(env.World, env.UGs)
	if err != nil {
		return nil, err
	}
	choice := make(map[int32]int, env.UGs.Len())
	sels, err := resolveAll(env, cfg)
	if err != nil {
		return nil, err
	}
	for _, ug := range env.UGs.UGs {
		base, ok := anyLat[ug.ID]
		if !ok {
			continue
		}
		best, bestP := base, -1
		for pi, sel := range sels {
			r, ok := sel[ug.ASN]
			if !ok {
				continue
			}
			ms, err := env.World.LatencyMs(ug.ASN, ug.Metro, r.Ingress)
			if err != nil {
				return nil, err
			}
			if ms < best {
				best, bestP = ms, pi
			}
		}
		choice[int32(ug.ID)] = bestP
	}
	return choice, nil
}

// staticChoiceBenefit evaluates Eq. (1) when each UG is stuck with its
// recorded prefix choice on the current day.
func staticChoiceBenefit(env *experiments.Env, cfg core.Config, choice map[int32]int) (float64, error) {
	anyLat, _, err := core.AnycastLatencies(env.World, env.UGs)
	if err != nil {
		return 0, err
	}
	sels, err := resolveAll(env, cfg)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, ug := range env.UGs.UGs {
		base, ok := anyLat[ug.ID]
		if !ok {
			continue
		}
		ms := base
		if p, ok := choice[int32(ug.ID)]; ok && p >= 0 && p < len(sels) {
			if r, ok := sels[p][ug.ASN]; ok {
				if v, err := env.World.LatencyMs(ug.ASN, ug.Metro, r.Ingress); err == nil {
					ms = v
				}
			}
		}
		// Static choice can be worse than anycast today: the UG is
		// committed to its day-0 prefix even if it degraded.
		total += ug.Weight * (base - ms)
	}
	return total, nil
}

// Fig7Table renders the drift series.
func Fig7Table(points []Fig7Point) Table {
	t := Table{
		Title:  "Fig 7 — % benefit drop over days (dynamic vs static prefix choice)",
		Header: []string{"budget", "day", "dynamic drop%", "static drop%"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Budget), fmt.Sprintf("%d", p.Day),
			num(p.DynamicDropPct), num(p.StaticDropPct),
		})
	}
	return t
}

// resolveAll resolves every prefix of a config once, returning per-
// prefix route selections.
func resolveAll(env *experiments.Env, cfg core.Config) ([]map[topology.ASN]bgp.Route, error) {
	sels := make([]map[topology.ASN]bgp.Route, 0, len(cfg.Prefixes))
	for _, peerings := range cfg.Prefixes {
		sel, err := env.World.ResolveIngress(peerings)
		if err != nil {
			return nil, err
		}
		sels = append(sels, sel)
	}
	return sels, nil
}
