// Tests of the figure runners in internal/figures, run against this
// package's small preset. They form an external test package, so the
// figure harness stays out of every production import graph.
package experiments_test

import (
	"strings"
	"testing"
	"time"

	"painter/internal/experiments"
	"painter/internal/figures"
	"painter/internal/trace"
)

// sharedEnv caches one small environment across the figure tests.
var sharedEnv *experiments.Env

func env(t *testing.T) *experiments.Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := experiments.NewEnv(experiments.ScaleSmall, 7)
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	sharedEnv.World.SetDay(0)
	return sharedEnv
}

func TestFig6aShape(t *testing.T) {
	e := env(t)
	rows, err := figures.RunFig6a(e, []float64{0.05, 0.3, 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	// At full budget, PAINTER should capture most of the possible
	// benefit and beat One-per-PoP variants (the headline of Fig. 6a).
	if last.Painter.Estimated < 0.5 {
		t.Errorf("PAINTER at full budget captures %.2f, want > 0.5", last.Painter.Estimated)
	}
	if last.Painter.Estimated < last.OnePerPoP.Estimated-0.05 {
		t.Errorf("PAINTER (%.2f) should not lose to OnePerPoP (%.2f)",
			last.Painter.Estimated, last.OnePerPoP.Estimated)
	}
	// Ranges must nest: lower <= estimated <= upper.
	for _, r := range rows {
		for name, rr := range map[string]struct{ lo, est, up float64 }{
			"painter":   {r.Painter.Lower, r.Painter.Estimated, r.Painter.Upper},
			"onePerPoP": {r.OnePerPoP.Lower, r.OnePerPoP.Estimated, r.OnePerPoP.Upper},
		} {
			if rr.lo > rr.est+1e-9 || rr.est > rr.up+1e-9 {
				t.Errorf("%s ranges not nested at budget %d: %+v", name, r.Budget, rr)
			}
		}
		// One-per-peering has no uncertainty: lower == upper.
		if r.OnePerPeer.Upper-r.OnePerPeer.Lower > 1e-9 {
			t.Errorf("one-per-peering should have zero uncertainty, got %v",
				r.OnePerPeer.Upper-r.OnePerPeer.Lower)
		}
	}
	// Rendering sanity.
	if s := figures.Fig6aTable(rows).String(); !strings.Contains(s, "PAINTER") {
		t.Error("table rendering broken")
	}
	if s := figures.Fig14Table(rows).String(); !strings.Contains(s, "one-per-pop") {
		t.Error("fig14 table rendering broken")
	}
}

func TestFig6bImprovementPositive(t *testing.T) {
	e := env(t)
	rows, err := figures.RunFig6b(e, []float64{0.1, 1.0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.PainterMs <= 0 {
		t.Errorf("PAINTER mean improvement %.2f ms, want positive", last.PainterMs)
	}
	if last.ImprovedUGs == 0 {
		t.Error("no improved UGs at full budget")
	}
}

func TestFig6cLearning(t *testing.T) {
	e := env(t)
	rows, err := figures.RunFig6c(e, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("want >=2 iterations, got %d", len(rows))
	}
	// Learning must narrow the final configuration's uncertainty band
	// (the paper's 44ms → 8ms effect), isolated from config growth.
	fresh := rows[0].FinalConfigUncertaintyFresh
	learned := rows[0].FinalConfigUncertaintyLearned
	if learned > fresh+1e-9 {
		t.Errorf("learned uncertainty %.2f exceeds fresh %.2f", learned, fresh)
	}
	if fresh > 1 && learned > 0.8*fresh {
		t.Errorf("learning barely narrowed uncertainty: %.2f -> %.2f", fresh, learned)
	}
	if rows[0].FactsLearned == 0 {
		t.Error("iteration 1 learned nothing")
	}
}

func TestFig7Drift(t *testing.T) {
	e := env(t)
	pts, err := figures.RunFig7(e, []int{4}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	for _, p := range pts {
		if p.DynamicDropPct < 0 || p.DynamicDropPct > 100 {
			t.Errorf("dynamic drop %v out of range", p.DynamicDropPct)
		}
		// Static (no re-selection) cannot beat dynamic.
		if p.StaticDropPct < p.DynamicDropPct-1e-9 {
			t.Errorf("day %d: static drop %.2f below dynamic %.2f", p.Day, p.StaticDropPct, p.DynamicDropPct)
		}
	}
}

func TestFig8Static(t *testing.T) {
	rows := figures.RunFig8()
	if len(rows) < 5 {
		t.Fatal("too few solutions")
	}
	var painter *figures.Fig8Row
	for i := range rows {
		if rows[i].Solution == "painter" {
			painter = &rows[i]
		}
		if rows[i].Deployability < 1 || rows[i].Deployability > 5 ||
			rows[i].Precision < 1 || rows[i].Precision > 5 {
			t.Errorf("scores out of range: %+v", rows[i])
		}
	}
	if painter == nil {
		t.Fatal("painter missing")
	}
	// The figure's claim: PAINTER pareto-dominates in combined score.
	for _, r := range rows {
		if r.Solution == "painter" {
			continue
		}
		if r.Deployability >= painter.Deployability && r.Precision >= painter.Precision {
			t.Errorf("%s dominates painter", r.Solution)
		}
	}
}

func TestFig9aGranularity(t *testing.T) {
	e := env(t)
	rows, err := figures.RunFig9a(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatal("too few rows")
	}
	byMech := map[string]*figures.Fig9aRow{}
	for i := range rows {
		if rows[i].PoP == "All" {
			byMech[rows[i].Mechanism] = &rows[i]
		}
	}
	for _, m := range []string{"bgp", "dns", "painter"} {
		r := byMech[m]
		if r == nil {
			t.Fatalf("missing All row for %s", m)
		}
		var sum float64
		for _, b := range r.Buckets {
			sum += b
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s buckets sum to %.3f", m, sum)
		}
	}
	// PAINTER is all finest-bucket; BGP must control a larger share of
	// traffic at coarse granularity than DNS.
	if byMech["painter"].Buckets[0] < 0.999 {
		t.Error("painter must control all traffic at the finest granularity")
	}
	bgpCoarse := byMech["bgp"].Buckets[3] + byMech["bgp"].Buckets[4]
	dnsCoarse := byMech["dns"].Buckets[3] + byMech["dns"].Buckets[4]
	if bgpCoarse < dnsCoarse {
		t.Errorf("BGP coarse share %.2f should be >= DNS coarse share %.2f", bgpCoarse, dnsCoarse)
	}
}

func TestFig9bDNSSacrifice(t *testing.T) {
	e := env(t)
	rows, err := figures.RunFig9b(e, []float64{0.3, 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.DNSFrac > last.PainterFrac+1e-9 {
		t.Errorf("DNS steering (%.2f) cannot beat per-flow (%.2f)", last.DNSFrac, last.PainterFrac)
	}
	if last.PainterFrac > 0.3 && last.DNSFrac/last.PainterFrac > 0.95 {
		t.Errorf("DNS retains %.2f of per-flow benefit; expected a visible sacrifice",
			last.DNSFrac/last.PainterFrac)
	}
}

func TestFig10Failover(t *testing.T) {
	cfg := figures.DefaultFig10Config()
	cfg.PreFail = 800 * time.Millisecond
	cfg.PostFail = 1200 * time.Millisecond
	// The paper's ≈1.3 RTT, with room for the probe that happens to
	// leave just after the cut and for loopback scheduling. The bound is
	// a few milliseconds of wall clock: a host stall in one run says
	// nothing about the rule, so a late detection earns a fresh run.
	var res *figures.Fig10Result
	for attempt := 1; attempt <= 3; attempt++ {
		var err error
		if res, err = figures.RunFig10(cfg); err != nil {
			t.Fatal(err)
		}
		if res.DetectedAfter > 0 && res.DetectionRTTs <= 1.6 {
			break
		}
		t.Logf("attempt %d: detected after %v = %.2f RTT", attempt, res.DetectedAfter, res.DetectionRTTs)
	}
	if len(res.Samples) < 10 {
		t.Fatalf("too few samples: %d", len(res.Samples))
	}
	if res.DetectedAfter <= 0 {
		t.Fatal("failure never detected")
	}
	if res.SwitchedAfter <= 0 {
		t.Fatal("never switched to PoP-B")
	}
	if res.SwitchedAfter > 500*time.Millisecond {
		t.Errorf("switch took %v, want RTT-timescale", res.SwitchedAfter)
	}
	if res.DetectionRTTs > 1.6 {
		t.Errorf("detected after %v = %.2f RTT of the dead path, want <= 1.6", res.DetectedAfter, res.DetectionRTTs)
	}
	if res.TotalBGPUpdates < 10 {
		t.Errorf("BGP collector saw %d updates, want a reconvergence burst", res.TotalBGPUpdates)
	}
	// Before failure the selected prefix should be a PoP-A unicast; after
	// the run it must be a PoP-B prefix.
	firstSel := res.Samples[2].Selected
	lastSel := res.Samples[len(res.Samples)-1].Selected
	if !strings.Contains(firstSel, "PoP-A") {
		t.Errorf("pre-failure selection %q, want a PoP-A unicast prefix", firstSel)
	}
	if !strings.Contains(lastSel, "PoP-B") {
		t.Errorf("post-failure selection %q, want a PoP-B prefix", lastSel)
	}
}

func TestFig11(t *testing.T) {
	e := env(t)
	a, err := figures.RunFig11a(e)
	if err != nil {
		t.Fatal(err)
	}
	if a.MedianExtraPaths <= 0 {
		t.Errorf("median extra paths = %v, want positive", a.MedianExtraPaths)
	}
	if a.FracUGsWithMorePaths < 0.6 {
		t.Errorf("PAINTER exposes more paths for only %.2f of UGs", a.FracUGsWithMorePaths)
	}
	b, err := figures.RunFig11b(e)
	if err != nil {
		t.Fatal(err)
	}
	if b.PainterFullAvoid <= b.SDWANFullAvoid {
		t.Errorf("PAINTER full avoidance %.2f should beat SD-WAN %.2f",
			b.PainterFullAvoid, b.SDWANFullAvoid)
	}
}

func TestFig12(t *testing.T) {
	e := env(t)
	a, err := figures.RunFig12a(e)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, p := range a {
		if p.CoverageAll < prev-1e-9 {
			t.Error("coverage not monotone")
		}
		prev = p.CoverageAll
	}
	b, err := figures.RunFig12b(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 3 {
		t.Fatal("too few buckets")
	}
	// Compare the first non-empty bucket against the largest later
	// non-empty bucket (small worlds may leave tail buckets empty).
	firstErr := -1.0
	maxLater := -1.0
	for i, p := range b {
		if p.MedianErrMs <= 0 {
			continue
		}
		if firstErr < 0 {
			firstErr = p.MedianErrMs
			continue
		}
		if p.MedianErrMs > maxLater {
			maxLater = p.MedianErrMs
		}
		_ = i
	}
	if firstErr < 0 || maxLater < 0 {
		t.Fatal("not enough populated buckets")
	}
	if maxLater <= firstErr {
		t.Errorf("error should grow with uncertainty: first=%.2f maxLater=%.2f", firstErr, maxLater)
	}
}

func TestFig3Experiment(t *testing.T) {
	an, err := figures.RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	tbl := figures.Fig3Table(an)
	if len(tbl.Rows) != len(trace.StandardOffsets)+1 {
		t.Errorf("fig3 table rows = %d", len(tbl.Rows))
	}
}

func TestFig15b(t *testing.T) {
	e := env(t)
	rows, err := figures.RunFig15b(e, []float64{800, 3000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PrefixesFor99 < 1 {
			t.Errorf("prefixes@99 = %d", r.PrefixesFor99)
		}
		if r.UncertaintyPct < -1e-9 {
			t.Errorf("negative uncertainty %v", r.UncertaintyPct)
		}
	}
}

func TestFig15a(t *testing.T) {
	e := env(t)
	rows, err := figures.RunFig15a(e, []float64{0.5, 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Peerings >= rows[1].Peerings {
		t.Error("peering counts should grow with deployment size")
	}
	for _, r := range rows {
		if r.P90 > r.P95 || r.P95 > r.P99 {
			t.Errorf("prefix requirements not monotone: %+v", r)
		}
	}
}

func TestAblations(t *testing.T) {
	e := env(t)
	rows, err := figures.RunAblations(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]figures.AblationResult{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.OnMs <= 0 || r.OffMs <= 0 {
			t.Errorf("%s: non-positive benefit on=%v off=%v", r.Name, r.OnMs, r.OffMs)
		}
	}
	// Reuse must not use fewer advertisements than no-reuse at equal
	// budget (that is its whole point: more (peering,prefix) pairs per
	// prefix).
	reuse := byName["prefix-reuse"]
	if reuse.OnAdverts <= reuse.OffAdverts {
		t.Errorf("reuse adverts %d should exceed no-reuse %d", reuse.OnAdverts, reuse.OffAdverts)
	}
	// No-reuse at equal prefix budget cannot beat reuse materially.
	if reuse.OffMs > reuse.OnMs*1.1 {
		t.Errorf("no-reuse (%v) materially beats reuse (%v)", reuse.OffMs, reuse.OnMs)
	}
	// Lazy greedy should be competitive with exact greedy.
	lazy := byName["lazy-greedy"]
	if lazy.OnMs < 0.8*lazy.OffMs {
		t.Errorf("lazy (%v) far below exact (%v)", lazy.OnMs, lazy.OffMs)
	}
}

func TestComplianceValidation(t *testing.T) {
	e := env(t)
	v, err := figures.RunComplianceValidation(e)
	if err != nil {
		t.Fatal(err)
	}
	if v.PathsHarvested < 50 {
		t.Fatalf("only %d AS paths harvested", v.PathsHarvested)
	}
	if v.InferenceAccuracy < 0.7 {
		t.Errorf("inference accuracy %.2f too low", v.InferenceAccuracy)
	}
	if v.ObservedSelections == 0 {
		t.Fatal("no observations checked")
	}
	// The paper found 4% violations; demand the same order of magnitude.
	if v.ViolationRate > 0.15 {
		t.Errorf("violation rate %.1f%% too high (paper: 4%%)", 100*v.ViolationRate)
	}
	if v.MeanCompliantSetSize < 1 {
		t.Errorf("mean compliant set %.1f implausible", v.MeanCompliantSetSize)
	}
}
