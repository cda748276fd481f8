package figures

import (
	"fmt"

	"painter/internal/experiments"
	"painter/internal/sdwan"
	"painter/internal/stats"
)

// Fig11aResult summarizes the path/PoP diversity CDFs of §5.2.4.
type Fig11aResult struct {
	// PathDiffCDF is the CDF of (PAINTER lower-bound paths − SD-WAN
	// paths) per UG; PathDiffUpperCDF uses the all-policy-compliant
	// upper bound; PoPDiffCDF is (PAINTER PoPs − SD-WAN PoPs).
	PathDiffCDF, PathDiffUpperCDF, PoPDiffCDF *stats.CDF
	// MedianExtraPaths is the headline "PAINTER exposes N more paths for
	// most UGs" number.
	MedianExtraPaths float64
	// FracUGsWithMorePaths is the fraction of UGs where PAINTER exposes
	// strictly more paths.
	FracUGsWithMorePaths float64
}

// RunFig11a computes the Fig. 11a distributions.
func RunFig11a(env *experiments.Env) (Fig11aResult, error) {
	an, err := sdwan.NewAnalyzer(env.World, env.UGs)
	if err != nil {
		return Fig11aResult{}, err
	}
	var lower, upper, pops []float64
	more := 0
	for _, u := range env.UGs.UGs {
		pc, err := an.Counts(u)
		if err != nil {
			return Fig11aResult{}, err
		}
		lower = append(lower, float64(pc.PainterLower-pc.SDWAN))
		upper = append(upper, float64(pc.PainterUpper-pc.SDWAN))
		pops = append(pops, float64(pc.PainterPoPs-pc.SDWANPoPs))
		if pc.PainterLower > pc.SDWAN {
			more++
		}
	}
	res := Fig11aResult{
		PathDiffCDF:      stats.NewCDF(lower),
		PathDiffUpperCDF: stats.NewCDF(upper),
		PoPDiffCDF:       stats.NewCDF(pops),
	}
	if med, err := stats.Median(lower); err == nil {
		res.MedianExtraPaths = med
	}
	if len(lower) > 0 {
		res.FracUGsWithMorePaths = float64(more) / float64(len(lower))
	}
	return res, nil
}

// Fig11aTable renders the CDFs at standard quantiles.
func Fig11aTable(r Fig11aResult) Table {
	t := Table{
		Title:  "Fig 11a — exposed paths/PoPs difference (PAINTER - SD-WAN), quantiles",
		Header: []string{"quantile", "best-paths diff", "all-paths diff", "PoPs diff"},
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		l, _ := r.PathDiffCDF.Quantile(q)
		u, _ := r.PathDiffUpperCDF.Quantile(q)
		p, _ := r.PoPDiffCDF.Quantile(q)
		t.Rows = append(t.Rows, []string{pct(q), num(l), num(u), num(p)})
	}
	t.Rows = append(t.Rows, []string{"UGs w/ more paths", pct(r.FracUGsWithMorePaths), "", ""})
	return t
}

// Fig11bResult is the avoidance comparison of Fig. 11b.
type Fig11bResult struct {
	PainterCDF, SDWANCDF *stats.CDF
	// FullAvoidance: fraction of UGs for which ALL default-path ASes can
	// be avoided (paper: PAINTER 90.7%, SD-WAN 69.5%).
	PainterFullAvoid, SDWANFullAvoid float64
}

// RunFig11b computes Fig. 11b.
func RunFig11b(env *experiments.Env) (Fig11bResult, error) {
	an, err := sdwan.NewAnalyzer(env.World, env.UGs)
	if err != nil {
		return Fig11bResult{}, err
	}
	var ps, ss []float64
	pFull, sFull := 0, 0
	for _, u := range env.UGs.UGs {
		p, s, err := an.AvoidanceFractions(u)
		if err != nil {
			return Fig11bResult{}, err
		}
		ps = append(ps, p)
		ss = append(ss, s)
		if p >= 1 {
			pFull++
		}
		if s >= 1 {
			sFull++
		}
	}
	res := Fig11bResult{PainterCDF: stats.NewCDF(ps), SDWANCDF: stats.NewCDF(ss)}
	if len(ps) > 0 {
		res.PainterFullAvoid = float64(pFull) / float64(len(ps))
		res.SDWANFullAvoid = float64(sFull) / float64(len(ss))
	}
	return res, nil
}

// Fig11bTable renders the avoidance CDF summary.
func Fig11bTable(r Fig11bResult) Table {
	t := Table{
		Title:  "Fig 11b — fraction of default-path ASes avoidable",
		Header: []string{"metric", "PAINTER", "SD-WAN"},
	}
	for _, q := range []float64{0.1, 0.25, 0.5} {
		p, _ := r.PainterCDF.Quantile(q)
		s, _ := r.SDWANCDF.Quantile(q)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("q%.0f avoid frac", q*100), num(p), num(s)})
	}
	t.Rows = append(t.Rows, []string{"UGs avoiding ALL", pct(r.PainterFullAvoid), pct(r.SDWANFullAvoid)})
	return t
}
