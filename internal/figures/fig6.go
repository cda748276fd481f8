package figures

import (
	"fmt"

	"painter/internal/advertise"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/usergroup"
)

// Fig6aResult is one row of Fig. 6a: at one prefix budget, the
// estimated fraction of possible benefit each strategy attains (Azure-
// scale, simulated/estimated measurements).
type Fig6aResult struct {
	Budget       int
	BudgetFrac   float64
	Painter      core.RangeResult
	OnePerPoP    core.RangeResult
	OnePerPoPR   core.RangeResult
	OnePerPeer   core.RangeResult
	RegionalOnce core.RangeResult // budget-independent; repeated per row
}

// RunFig6a sweeps prefix budgets and evaluates PAINTER against the
// baseline strategies using the Fig. 6a estimated-benefit metric. As in
// the paper, the orchestrator optimizes over the same measurement
// dataset the strategies are evaluated on (the Appendix-C simulated
// measurements ARE the ground truth of this figure); uncertainty comes
// from not knowing which policy-compliant ingress each UG lands on, not
// from measurement error. The Regional baseline is evaluated by ground
// truth and reported in RegionalOnce (the paper found it offered little
// benefit and dropped it from the figure).
func RunFig6a(env *experiments.Env, fracs []float64, iters int) ([]Fig6aResult, error) {
	if len(fracs) == 0 {
		fracs = standardBudgetFracs
	}
	in := env.Inputs
	regional, err := core.EvaluateRange(env.World, env.UGs, advertise.Regional(env.Deploy))
	if err != nil {
		return nil, err
	}
	nPeerings := len(env.Deploy.AllPeeringIDs())
	var out []Fig6aResult
	for _, budget := range env.Budgets(fracs) {
		params := core.DefaultParams(budget)
		params.MaxIterations = iters
		exec := core.NewWorldExecutor(env.World, in.UGs, 0, env.Seed+99)
		o, err := core.New(in, exec, params)
		if err != nil {
			return nil, err
		}
		cfg, err := o.Solve()
		if err != nil {
			return nil, err
		}
		row := Fig6aResult{Budget: budget, BudgetFrac: float64(budget) / float64(nPeerings),
			RegionalOnce: regional}
		if row.Painter, err = core.EvaluateRange(env.World, env.UGs, cfg); err != nil {
			return nil, err
		}
		if row.OnePerPoP, err = core.EvaluateRange(env.World, env.UGs, advertise.OnePerPoP(env.Deploy, budget)); err != nil {
			return nil, err
		}
		if row.OnePerPoPR, err = core.EvaluateRange(env.World, env.UGs, advertise.OnePerPoPWithReuse(env.Deploy, budget, params.ReuseKm)); err != nil {
			return nil, err
		}
		if row.OnePerPeer, err = core.EvaluateRange(env.World, env.UGs, advertise.OnePerPeering(env.Deploy, budget)); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig6aTable renders the results as the paper's series.
func Fig6aTable(rows []Fig6aResult) Table {
	t := Table{
		Title:  "Fig 6a — estimated % of possible benefit vs % prefix budget",
		Header: []string{"budget", "%budget", "PAINTER", "OnePerPeering", "OnePerPoP", "OnePerPoP+Reuse"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Budget), pct(r.BudgetFrac),
			pct(r.Painter.Estimated), pct(r.OnePerPeer.Estimated),
			pct(r.OnePerPoP.Estimated), pct(r.OnePerPoPR.Estimated),
		})
	}
	return t
}

// Fig6bResult is one row of Fig. 6b: mean latency improvement (ms) over
// UGs with non-zero improvement, per strategy, on the prototype-scale
// deployment with real (in-world) advertisements.
type Fig6bResult struct {
	Budget     int
	BudgetFrac float64
	// Mean improvement in ms over improved UGs.
	PainterMs, OnePerPeerMs, OnePerPoPMs, OnePerPoPRMs float64
	// ImprovedUGs under PAINTER.
	ImprovedUGs int
}

// RunFig6b sweeps budgets on the PEERING-profile environment with
// direct measurements (prototype mode).
func RunFig6b(env *experiments.Env, fracs []float64, iters int) ([]Fig6bResult, error) {
	if len(fracs) == 0 {
		fracs = standardBudgetFracs
	}
	nPeerings := len(env.Deploy.AllPeeringIDs())

	// The paper averages over "clients that have non-zero improvement":
	// fix that population once, as the UGs improvable at all (positive
	// improvement under the full One-per-Peering exposure), and average
	// every strategy over the same set.
	full, err := core.Evaluate(env.World, env.UGs,
		advertise.OnePerPeering(env.Deploy, nPeerings))
	if err != nil {
		return nil, err
	}
	improvable := make(map[usergroup.ID]bool)
	for id, imp := range full.PerUG {
		if imp > 1e-9 {
			improvable[id] = true
		}
	}
	if len(improvable) == 0 {
		return nil, fmt.Errorf("figures: no improvable UGs")
	}

	var out []Fig6bResult
	for _, budget := range env.Budgets(fracs) {
		params := core.DefaultParams(budget)
		params.MaxIterations = iters
		exec := core.NewWorldExecutor(env.World, env.UGs, 0.5, env.Seed+77)
		o, err := core.New(env.Inputs, exec, params)
		if err != nil {
			return nil, err
		}
		cfg, err := o.Solve()
		if err != nil {
			return nil, err
		}
		row := Fig6bResult{Budget: budget, BudgetFrac: float64(budget) / float64(nPeerings)}
		eval := func(c advertise.Config) (float64, int, error) {
			res, err := core.Evaluate(env.World, env.UGs, c)
			if err != nil {
				return 0, 0, err
			}
			var sum float64
			n := 0
			for id := range improvable {
				sum += res.PerUG[id]
				if res.PerUG[id] > 1e-9 {
					n++
				}
			}
			return sum / float64(len(improvable)), n, nil
		}
		var n int
		if row.PainterMs, n, err = eval(cfg); err != nil {
			return nil, err
		}
		row.ImprovedUGs = n
		if row.OnePerPeerMs, _, err = eval(advertise.OnePerPeering(env.Deploy, budget)); err != nil {
			return nil, err
		}
		if row.OnePerPoPMs, _, err = eval(advertise.OnePerPoP(env.Deploy, budget)); err != nil {
			return nil, err
		}
		if row.OnePerPoPRMs, _, err = eval(advertise.OnePerPoPWithReuse(env.Deploy, budget, params.ReuseKm)); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig6bTable renders Fig. 6b.
func Fig6bTable(rows []Fig6bResult) Table {
	t := Table{
		Title:  "Fig 6b — mean latency improvement (ms, improved UGs) vs % prefix budget (prototype)",
		Header: []string{"budget", "%budget", "PAINTER", "OnePerPeering", "OnePerPoP", "OnePerPoP+Reuse", "improvedUGs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Budget), pct(r.BudgetFrac),
			num(r.PainterMs), num(r.OnePerPeerMs), num(r.OnePerPoPMs), num(r.OnePerPoPRMs),
			fmt.Sprintf("%d", r.ImprovedUGs),
		})
	}
	return t
}

// Fig6cResult is one learning-iteration curve point: realized benefit
// plus the pre-execution uncertainty band.
type Fig6cResult struct {
	Iteration                        int
	RealizedBenefitMs                float64
	PredictedMs, LowerMs, UpperMs    float64
	FactsLearned, AdvertisementsUsed int
	// FinalConfigUncertaintyFresh/Learned isolate the learning effect:
	// the final configuration's prediction band width under a fresh
	// (unlearned) routing model vs under the fully learned one. These
	// are identical across rows; the narrowing is the paper's "going
	// from 44 ms uncertainty to 8 ms".
	FinalConfigUncertaintyFresh, FinalConfigUncertaintyLearned float64
}

// RunFig6c runs the orchestrator for several learning iterations at a
// fixed budget and reports the per-iteration realized benefit and
// uncertainty (the shaded bands of Fig. 6c).
func RunFig6c(env *experiments.Env, budget, iters int) ([]Fig6cResult, error) {
	params := core.DefaultParams(budget)
	params.MaxIterations = iters
	params.MinIterBenefitGain = -1 // run all iterations for the figure
	// Fig. 6c is about learning correcting a wrong initial model, so the
	// orchestrator starts from Appendix-B/C *estimated* measurements and
	// replaces them with real observations as it iterates.
	in, err := env.EstimatedInputs()
	if err != nil {
		return nil, err
	}
	exec := core.NewWorldExecutor(env.World, in.UGs, 0.5, env.Seed+55)
	o, err := core.New(in, exec, params)
	if err != nil {
		return nil, err
	}
	cfg, err := o.Solve()
	if err != nil {
		return nil, err
	}
	// Isolate learning: predict the final configuration's benefit band
	// with a fresh model vs the learned one.
	_, loL, upL := o.PredictBenefit(cfg)
	fresh, err := core.New(in, nil, params)
	if err != nil {
		return nil, err
	}
	_, loF, upF := fresh.PredictBenefit(cfg)

	var out []Fig6cResult
	for _, rep := range o.Reports() {
		out = append(out, Fig6cResult{
			Iteration:                     rep.Iteration,
			RealizedBenefitMs:             rep.RealizedBenefit,
			PredictedMs:                   rep.PredictedBenefit,
			LowerMs:                       rep.PredictedLower,
			UpperMs:                       rep.PredictedUpper,
			FactsLearned:                  rep.FactsLearned,
			AdvertisementsUsed:            rep.AdvertisementsUsed,
			FinalConfigUncertaintyFresh:   upF - loF,
			FinalConfigUncertaintyLearned: upL - loL,
		})
	}
	return out, nil
}

// Fig6cTable renders Fig. 6c.
func Fig6cTable(rows []Fig6cResult) Table {
	t := Table{
		Title:  "Fig 6c — benefit across learning iterations (uncertainty = upper-lower)",
		Header: []string{"iter", "realized(ms)", "predicted(ms)", "lower", "upper", "uncertainty", "facts", "adverts"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Iteration), num(r.RealizedBenefitMs), num(r.PredictedMs),
			num(r.LowerMs), num(r.UpperMs), num(r.UpperMs - r.LowerMs),
			fmt.Sprintf("%d", r.FactsLearned), fmt.Sprintf("%d", r.AdvertisementsUsed),
		})
	}
	if len(rows) > 0 {
		t.Rows = append(t.Rows, []string{
			"final-config uncertainty", "fresh model:", num(rows[0].FinalConfigUncertaintyFresh),
			"learned:", num(rows[0].FinalConfigUncertaintyLearned), "", "", "",
		})
	}
	return t
}

// Fig14Table renders the full benefit ranges (Appendix E.1) from Fig6a
// results.
func Fig14Table(rows []Fig6aResult) Table {
	t := Table{
		Title:  "Fig 14 — benefit ranges (lower/mean/estimated/upper) per strategy",
		Header: []string{"budget", "strategy", "lower", "mean", "estimated", "upper"},
	}
	for _, r := range rows {
		add := func(name string, rr core.RangeResult) {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", r.Budget), name,
				pct(rr.Lower), pct(rr.Mean), pct(rr.Estimated), pct(rr.Upper),
			})
		}
		add(advertise.StrategyPainter, r.Painter)
		add(advertise.StrategyOnePerPeering, r.OnePerPeer)
		add(advertise.StrategyOnePerPoP, r.OnePerPoP)
		add(advertise.StrategyOnePerPoPReuse, r.OnePerPoPR)
	}
	return t
}
