package figures

import (
	"fmt"
	"time"

	"painter/internal/experiments"
	"painter/internal/trace"
)

// Fig12aPoint is coverage at one admissible geolocation uncertainty.
type Fig12aPoint struct {
	UncertaintyKm  float64
	CoverageAll    float64
	CoverageProbes float64
}

// RunFig12a sweeps admissible target uncertainty and reports the
// traffic-weighted coverage of policy-compliant (UG, ingress) tuples
// (Appendix B, Fig. 12a).
func RunFig12a(env *experiments.Env) ([]Fig12aPoint, error) {
	var out []Fig12aPoint
	for _, km := range []float64{100, 200, 300, 400, 450, 500, 600, 700, 1000, 1500} {
		all, err := env.Meas.CoverageAt(km, false)
		if err != nil {
			return nil, err
		}
		probes, err := env.Meas.CoverageAt(km, true)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig12aPoint{UncertaintyKm: km, CoverageAll: all, CoverageProbes: probes})
	}
	return out, nil
}

// Fig12aTable renders the coverage sweep.
func Fig12aTable(rows []Fig12aPoint) Table {
	t := Table{
		Title:  "Fig 12a — % of volume covered by targets vs geolocation uncertainty",
		Header: []string{"uncertainty(km)", "all UGs", "probe UGs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{num(r.UncertaintyKm), pct(r.CoverageAll), pct(r.CoverageProbes)})
	}
	return t
}

// Fig12bPoint is the median estimation error in one uncertainty bucket.
type Fig12bPoint struct {
	LoKm, HiKm  float64
	MedianErrMs float64
}

// RunFig12b buckets target uncertainty and reports median |estimated −
// actual| latency per bucket (Fig. 12b).
func RunFig12b(env *experiments.Env) ([]Fig12bPoint, error) {
	buckets := [][2]float64{{0, 100}, {100, 200}, {200, 300}, {300, 450}, {450, 700}, {700, 1500}}
	var out []Fig12bPoint
	for _, b := range buckets {
		med, err := env.Meas.MedianAbsErrorAt(b[0], b[1])
		if err != nil {
			return nil, err
		}
		out = append(out, Fig12bPoint{LoKm: b[0], HiKm: b[1], MedianErrMs: med})
	}
	return out, nil
}

// Fig12bTable renders the error sweep.
func Fig12bTable(rows []Fig12bPoint) Table {
	t := Table{
		Title:  "Fig 12b — median |estimated-actual| latency vs target uncertainty",
		Header: []string{"bucket(km)", "median err (ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f-%.0f", r.LoKm, r.HiKm), num(r.MedianErrMs)})
	}
	return t
}

// RunFig3 generates the residential capture and runs the matching
// analysis (§2.2).
func RunFig3() (*trace.Analysis, error) {
	cap, err := trace.Generate(trace.DefaultGenConfig())
	if err != nil {
		return nil, err
	}
	return trace.Analyze(cap, nil)
}

// Fig3Table renders the post-expiry traffic curves.
func Fig3Table(an *trace.Analysis) Table {
	t := Table{
		Title:  "Fig 3 — % of bytes sent at/after DNS-record expiry + offset",
		Header: []string{"offset"},
	}
	clouds := []trace.Cloud{trace.CloudA, trace.CloudB, trace.CloudC}
	for _, c := range clouds {
		t.Header = append(t.Header, c.String())
	}
	for i, off := range trace.StandardOffsets {
		row := []string{formatOffset(off)}
		for _, c := range clouds {
			row = append(row, pct(an.Curves[c][i]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{
		"matched flows",
		fmt.Sprintf("%d/%d", an.MatchedFlows, an.TotalFlows), "", "",
	})
	return t
}

func formatOffset(d time.Duration) string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	default:
		return "+" + d.String()
	}
}
