package figures

import (
	"fmt"
	"time"

	"painter/internal/core"
	"painter/internal/experiments"
)

// AblationResult quantifies one design choice from DESIGN.md: benefit
// with the mechanism on vs off, at equal budget.
type AblationResult struct {
	Name string
	// On/Off are ground-truth weighted benefits (ms).
	OnMs, OffMs float64
	// OnAdverts/OffAdverts are the BGP footprints used.
	OnAdverts, OffAdverts int
	// OnTime/OffTime are solve wall times.
	OnTime, OffTime time.Duration
}

// RunAblations evaluates PAINTER's design choices at one budget:
//
//   - prefix reuse (unlimited vs one peering per prefix);
//   - preference learning (4 iterations vs 1);
//   - lazy greedy vs exact greedy.
func RunAblations(env *experiments.Env, budget int) ([]AblationResult, error) {
	solve := func(mut func(*core.Params), exec core.Executor) (float64, int, time.Duration, error) {
		params := core.DefaultParams(budget)
		params.MaxIterations = 1
		if mut != nil {
			mut(&params)
		}
		o, err := core.New(env.Inputs, exec, params)
		if err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		cfg, err := o.Solve()
		if err != nil {
			return 0, 0, 0, err
		}
		el := time.Since(start)
		res, err := core.Evaluate(env.World, env.UGs, cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		return res.Benefit, cfg.TotalAdvertisements(), el, nil
	}
	execFor := func(seed int64) core.Executor {
		return core.NewWorldExecutor(env.World, env.UGs, 0.5, seed)
	}

	var out []AblationResult

	// Prefix reuse.
	r := AblationResult{Name: "prefix-reuse"}
	var err error
	if r.OnMs, r.OnAdverts, r.OnTime, err = solve(nil, nil); err != nil {
		return nil, err
	}
	if r.OffMs, r.OffAdverts, r.OffTime, err = solve(func(p *core.Params) {
		p.MaxPeeringsPerPrefix = 1
	}, nil); err != nil {
		return nil, err
	}
	out = append(out, r)

	// Learning.
	r = AblationResult{Name: "preference-learning"}
	if r.OnMs, r.OnAdverts, r.OnTime, err = solve(func(p *core.Params) {
		p.MaxIterations = 4
		p.MinIterBenefitGain = -1
	}, execFor(env.Seed+201)); err != nil {
		return nil, err
	}
	if r.OffMs, r.OffAdverts, r.OffTime, err = solve(nil, execFor(env.Seed+202)); err != nil {
		return nil, err
	}
	out = append(out, r)

	// Lazy vs exact greedy (on = lazy, off = exact).
	r = AblationResult{Name: "lazy-greedy"}
	if r.OnMs, r.OnAdverts, r.OnTime, err = solve(nil, nil); err != nil {
		return nil, err
	}
	if r.OffMs, r.OffAdverts, r.OffTime, err = solve(func(p *core.Params) {
		p.ExactGreedy = true
	}, nil); err != nil {
		return nil, err
	}
	out = append(out, r)

	return out, nil
}

// AblationTable renders the ablation results.
func AblationTable(rows []AblationResult) Table {
	t := Table{
		Title:  "Ablations — design choices on vs off (equal budget)",
		Header: []string{"choice", "on (ms)", "off (ms)", "on adverts", "off adverts", "on time", "off time"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, num(r.OnMs), num(r.OffMs),
			fmt.Sprintf("%d", r.OnAdverts), fmt.Sprintf("%d", r.OffAdverts),
			r.OnTime.Truncate(time.Millisecond).String(), r.OffTime.Truncate(time.Millisecond).String(),
		})
	}
	return t
}
