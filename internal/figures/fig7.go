package figures

import (
	"fmt"
	"math"
	"slices"

	"painter/internal/bgp"
	"painter/internal/core"
	"painter/internal/experiments"
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

// bestPrefixPerUG returns each UG's best prefix index on the world's
// current day, in env.UGs order (-1 = anycast, and for UGs with no
// anycast route).
func bestPrefixPerUG(env *experiments.Env, cfg core.Config) ([]int, error) {
	ugs := env.UGs.UGs
	best := make([]float64, len(ugs))
	choice := make([]int, len(ugs))
	if err := env.World.Land(env.Deploy.AllPeeringIDs(), ugs, nil, func(i int, _ bgp.IngressID, ms float64) {
		best[i], choice[i] = ms, -1
	}); err != nil {
		return nil, err
	}
	for p, peerings := range cfg.Prefixes {
		if err := env.World.Land(peerings, ugs, nil, func(i int, _ bgp.IngressID, ms float64) {
			if ms < best[i] {
				best[i], choice[i] = ms, p
			}
		}); err != nil {
			return nil, err
		}
	}
	return choice, nil
}

// staticChoiceBenefit evaluates Eq. (1) when each UG is stuck with its
// recorded prefix choice on the current day.
func staticChoiceBenefit(env *experiments.Env, cfg core.Config, choice []int) (float64, error) {
	ugs := env.UGs.UGs
	base := make([]float64, len(ugs))
	if err := env.World.Land(env.Deploy.AllPeeringIDs(), ugs, nil, func(i int, _ bgp.IngressID, ms float64) {
		base[i] = ms
	}); err != nil {
		return 0, err
	}
	// Static choice can be worse than anycast today: the UG is
	// committed to its day-0 prefix even if it degraded.
	got := slices.Clone(base)
	for p, peerings := range cfg.Prefixes {
		if err := env.World.Land(peerings, ugs, nil, func(i int, _ bgp.IngressID, ms float64) {
			if choice[i] == p && !math.IsNaN(ms) {
				got[i] = ms
			}
		}); err != nil {
			return 0, err
		}
	}
	var total float64
	for i, ug := range ugs {
		if !math.IsNaN(base[i]) {
			total += ug.Weight * (base[i] - got[i])
		}
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
