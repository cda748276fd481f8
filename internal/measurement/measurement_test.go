package measurement

import (
	"math"
	"sync"
	"testing"

	"painter/internal/bgp"

	"painter/internal/cloud"
	"painter/internal/netsim"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

func testSystem(t *testing.T) (*System, *netsim.World, *usergroup.Set) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 33, Tier1: 4, Tier2: 24, Stubs: 200,
		MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.4, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{Name: "t", PoPMetros: 12, PeerFrac: 0.8, TransitProviders: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w, err := netsim.New(g, d, 55)
	if err != nil {
		t.Fatal(err)
	}
	ugs, err := usergroup.Build(g, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(w, ugs, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s, w, ugs
}

func TestProbeCoverageTarget(t *testing.T) {
	s, _, ugs := testSystem(t)
	var covered float64
	for _, u := range ugs.UGs {
		if s.probes[u.ID] {
			covered += u.Weight
		}
	}
	if covered < 0.45 || covered > 0.60 {
		t.Errorf("probe traffic coverage = %.3f, want ~0.47", covered)
	}
	if len(s.probes) >= ugs.Len() {
		t.Error("probes should cover a strict subset of UGs")
	}
}

func TestTargetUncertaintyDistribution(t *testing.T) {
	s, w, _ := testSystem(t)
	precise, mid, far, none := 0, 0, 0, 0
	for _, ing := range w.Deploy.AllPeeringIDs() {
		u := s.targetUncKm[ing]
		switch {
		case math.IsInf(u, 1):
			none++
		case u <= 150:
			precise++
		case u <= 500:
			mid++
		default:
			far++
		}
	}
	total := precise + mid + far + none
	if precise == 0 || mid == 0 || far == 0 {
		t.Errorf("degenerate uncertainty distribution: %d/%d/%d/%d", precise, mid, far, none)
	}
	if frac := float64(mid) / float64(total); frac < 0.3 {
		t.Errorf("mid-uncertainty targets = %.2f of total, want the bulk", frac)
	}
}

func TestCoverageMonotoneInUncertainty(t *testing.T) {
	s, _, _ := testSystem(t)
	prev := -1.0
	for _, km := range []float64{100, 200, 300, 450, 700, 1500} {
		c, err := s.CoverageAt(km, false)
		if err != nil {
			t.Fatal(err)
		}
		if c < prev-1e-9 {
			t.Errorf("coverage not monotone at %v km: %v -> %v", km, prev, c)
		}
		if c < 0 || c > 1 {
			t.Errorf("coverage %v out of range", c)
		}
		prev = c
	}
	// At the paper's 450 km, coverage should be substantial.
	c450, _ := s.CoverageAt(450, false)
	if c450 < 0.5 {
		t.Errorf("coverage at 450 km = %.2f, want > 0.5 (paper: 80.6%%)", c450)
	}
}

func TestErrorGrowsWithUncertainty(t *testing.T) {
	s, _, _ := testSystem(t)
	small, err := s.MedianAbsErrorAt(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.MedianAbsErrorAt(500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 || large <= 0 {
		t.Fatalf("error buckets empty: %v / %v", small, large)
	}
	if large <= small {
		t.Errorf("estimation error should grow with uncertainty: small=%.2f large=%.2f", small, large)
	}
	// At the paper's 450 km knee the error should be a few ms.
	mid, err := s.MedianAbsErrorAt(300, 450)
	if err != nil {
		t.Fatal(err)
	}
	if mid > 6 {
		t.Errorf("median error at ~450 km = %.2f ms, want a few ms (paper: ~2)", mid)
	}
}

func TestMeasuredMsGating(t *testing.T) {
	s, w, ugs := testSystem(t)
	var probe, noProbe *usergroup.UG
	for i := range ugs.UGs {
		u := &ugs.UGs[i]
		if s.probes[u.ID] && probe == nil {
			probe = u
		}
		if !s.probes[u.ID] && noProbe == nil {
			noProbe = u
		}
	}
	if probe == nil || noProbe == nil {
		t.Fatal("need both probe and non-probe UGs")
	}
	var coveredIng, uncoveredIng = int32(-1), int32(-1)
	for _, ing := range w.Deploy.AllPeeringIDs() {
		if s.covers(ing) && coveredIng == -1 {
			coveredIng = int32(ing)
		}
		if !s.covers(ing) && uncoveredIng == -1 {
			uncoveredIng = int32(ing)
		}
	}
	if coveredIng == -1 {
		t.Fatal("no covered ingress")
	}
	if _, ok := s.measuredMs(*probe, bgpIngress(coveredIng)); !ok {
		t.Error("probe + covered target should measure")
	}
	if _, ok := s.measuredMs(*noProbe, bgpIngress(coveredIng)); ok {
		t.Error("non-probe UG must not measure directly")
	}
	if uncoveredIng != -1 {
		if _, ok := s.measuredMs(*probe, bgpIngress(uncoveredIng)); ok {
			t.Error("uncovered ingress must not be measurable")
		}
	}
}

func TestMeasurementAccuracyForPreciseTargets(t *testing.T) {
	s, w, ugs := testSystem(t)
	checked := 0
	for _, u := range ugs.UGs {
		if !s.probes[u.ID] {
			continue
		}
		pc, err := w.CompliantIngressIDs(u.ASN)
		if err != nil {
			t.Fatal(err)
		}
		for _, ing := range pc {
			if s.targetUncKm[ing] > 100 {
				continue
			}
			est, ok := s.measuredMs(u, ing)
			if !ok {
				continue
			}
			truth, err := w.LatencyMs(u.ASN, u.Metro, ing)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est-truth) > 5 {
				t.Errorf("precise target estimate off by %.1f ms", est-truth)
			}
			checked++
			if checked > 50 {
				return
			}
		}
	}
	if checked == 0 {
		t.Skip("no precise-target measurements available")
	}
}

func TestEstimatorCoversNonProbeUGs(t *testing.T) {
	s, w, ugs := testSystem(t)
	est := s.Estimator()
	probeHits, extrapolated := 0, 0
	for _, u := range ugs.UGs {
		pc, err := w.CompliantIngressIDs(u.ASN)
		if err != nil {
			t.Fatal(err)
		}
		for _, ing := range pc {
			ms, ok := est(u, ing)
			if !ok {
				continue
			}
			if ms <= 0 {
				t.Fatalf("estimate %v must be positive", ms)
			}
			if s.probes[u.ID] {
				probeHits++
			} else {
				extrapolated++
			}
		}
	}
	if probeHits == 0 {
		t.Error("no direct probe estimates")
	}
	if extrapolated == 0 {
		t.Error("no extrapolated estimates for unprobed UGs (Appendix C)")
	}
}

func TestEstimatorDeterministic(t *testing.T) {
	s, w, ugs := testSystem(t)
	e1, e2 := s.Estimator(), s.Estimator()
	u := ugs.UGs[0]
	for _, ing := range w.Deploy.AllPeeringIDs()[:10] {
		a, okA := e1(u, ing)
		b, okB := e2(u, ing)
		if okA != okB || a != b {
			t.Fatalf("estimator nondeterministic for ingress %d: %v/%v vs %v/%v", ing, a, okA, b, okB)
		}
	}
}

// TestEstimatorConcurrentUse: the orchestrator calls one estimator from
// its worker pool, so concurrent callers must get the sequential answers
// (and, under -race, touch no unsynchronized state).
func TestEstimatorConcurrentUse(t *testing.T) {
	s, w, ugs := testSystem(t)
	shared, serial := s.Estimator(), s.Estimator()
	ings := w.Deploy.AllPeeringIDs()[:6]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ugs.UGs); i += 2 { // pairs of goroutines share UGs
				for _, ing := range ings {
					shared(ugs.UGs[i], ing)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, u := range ugs.UGs {
		for _, ing := range ings {
			a, okA := shared(u, ing)
			b, okB := serial(u, ing)
			if okA != okB || a != b {
				t.Fatalf("UG %d ingress %d: shared estimator %v/%v, serial %v/%v", u.ID, ing, a, okA, b, okB)
			}
		}
	}
}

// bgpIngress converts for test readability.
func bgpIngress(v int32) bgp.IngressID { return bgp.IngressID(v) }
