package netsim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"painter/internal/bgp"
	"painter/internal/geo"
)

// distanceOracle is geo.DistanceKm from a catalog metro to a deployment
// peering's PoP, looked up from scratch.
func distanceOracle(t *testing.T, w *World, metro geo.Metro, ing bgp.IngressID) float64 {
	t.Helper()
	pop, err := w.Deploy.PoPOfPeering(ing)
	if err != nil {
		t.Fatal(err)
	}
	return geo.DistanceKm(metro.Coord, pop.Coord)
}

// TestDistanceMemoMatchesGeo: for every catalog metro and deployment
// ingress, the world's distance is geo.DistanceKm bit for bit, on first
// use (the cell fills) and on second (the cell is read). A metro off the
// catalog fails as geo.MetroByCode does, through BaseLatencyMs too.
func TestDistanceMemoMatchesGeo(t *testing.T) {
	w := testWorld(t)
	ids := w.Deploy.AllPeeringIDs()
	metros := geo.Metros()
	for pass := 0; pass < 2; pass++ {
		for _, m := range metros {
			for _, ing := range ids {
				want := distanceOracle(t, w, m, ing)
				got, err := w.distanceKm(m.Code, ing)
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pass %d %s→%d: distance %v (%v), geo.DistanceKm %v", pass, m.Code, ing, got, err, want)
				}
			}
		}
	}
	filled := 0
	for k := range w.distCells {
		if w.distCells[k].Load() != 0 {
			filled++
		}
	}
	if want := len(metros) * len(ids); filled != want {
		t.Fatalf("%d distance cells filled, want one per (metro, ingress) = %d", filled, want)
	}

	const off = "no-such-metro"
	_, want := geo.MetroByCode(off)
	if want == nil {
		t.Fatalf("%q is in the metro catalog; the case tests nothing", off)
	}
	if _, err := w.distanceKm(off, ids[0]); err == nil || err.Error() != want.Error() {
		t.Fatalf("distance from %q: error %v, want geo.MetroByCode's %v", off, err, want)
	}
	asn, _ := firstStubUG(t, w)
	if _, err := w.BaseLatencyMs(asn, off, ids[0]); err == nil || err.Error() != want.Error() {
		t.Fatalf("BaseLatencyMs from %q: error %v, want geo.MetroByCode's %v", off, err, want)
	}
}

// TestDistanceMemoConcurrentFirstUse races first use of every cell on a
// fresh world: four goroutines walk the metros from different starting
// points, each through distanceKm and BaseLatencyMs, and every one must
// read geo.DistanceKm's bits. Under -race this checks that the lazy fill
// is synchronized.
func TestDistanceMemoConcurrentFirstUse(t *testing.T) {
	w := testWorld(t)
	ids := w.Deploy.AllPeeringIDs()
	metros := geo.Metros()
	want := make([]float64, len(metros)*len(ids))
	for mi, m := range metros {
		for k, ing := range ids {
			want[mi*len(ids)+k] = distanceOracle(t, w, m, ing)
		}
	}
	asn, _ := firstStubUG(t, w)
	const workers = 4
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := range metros {
				mi := (step + g*len(metros)/workers) % len(metros)
				for k, ing := range ids {
					got, err := w.distanceKm(metros[mi].Code, ing)
					if err == nil {
						_, err = w.BaseLatencyMs(asn, metros[mi].Code, ing)
					}
					if err != nil || math.Float64bits(got) != math.Float64bits(want[mi*len(ids)+k]) {
						errs[g] = fmt.Errorf("%s→%d: distance %v (%v), geo.DistanceKm %v",
							metros[mi].Code, ing, got, err, want[mi*len(ids)+k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
