package netsim

// Tests for Land, the measure step every consumer (core's executor and
// evaluator, the figure loops, dnssim, measurement) is built on: for
// each UG it must answer exactly what ResolveIngress, Result.Route and
// LatencyMs answer one by one.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"painter/internal/bgp"
	"painter/internal/usergroup"
)

// landing is one UG's answer.
type landing struct {
	ing bgp.IngressID
	ms  float64
}

// landOracle answers Land's question the long way.
func landOracle(w *World, peerings []bgp.IngressID, ugs []usergroup.UG) ([]landing, error) {
	res, err := w.ResolveIngress(peerings)
	if err != nil {
		return nil, err
	}
	out := make([]landing, len(ugs))
	for i, ug := range ugs {
		r, ok := res.Route(ug.ASN)
		if !ok {
			out[i] = landing{bgp.InvalidIngress, math.NaN()}
			continue
		}
		ms, err := w.LatencyMs(ug.ASN, ug.Metro, r.Ingress)
		if err != nil {
			return nil, err
		}
		out[i] = landing{r.Ingress, ms}
	}
	return out, nil
}

// landAll collects Land's answers, checking that it visits every UG
// once, in order.
func landAll(w *World, peerings []bgp.IngressID, ugs []usergroup.UG) ([]landing, error) {
	out := make([]landing, 0, len(ugs))
	var orderErr error
	err := w.Land(peerings, ugs, nil, func(i int, ing bgp.IngressID, ms float64) {
		if i != len(out) && orderErr == nil {
			orderErr = fmt.Errorf("visited UG %d after %d UGs", i, len(out))
		}
		out = append(out, landing{ing, ms})
	})
	if err != nil {
		return nil, err
	}
	if orderErr != nil {
		return nil, orderErr
	}
	if len(out) != len(ugs) {
		return nil, fmt.Errorf("visited %d of %d UGs", len(out), len(ugs))
	}
	return out, nil
}

// sameLandings compares two answers bit for bit (NaN equal to NaN).
func sameLandings(a, b []landing) error {
	for i := range a {
		if a[i].ing != b[i].ing || math.Float64bits(a[i].ms) != math.Float64bits(b[i].ms) {
			return fmt.Errorf("UG %d lands on %d at %v ms, want %d at %v ms", i, a[i].ing, a[i].ms, b[i].ing, b[i].ms)
		}
	}
	return nil
}

// checkLand compares Land with the oracle for every set and returns how
// many UGs had no route.
func checkLand(t *testing.T, w *World, ugs []usergroup.UG, sets [][]bgp.IngressID, ctx string) int {
	t.Helper()
	dark := 0
	for si, set := range sets {
		want, err := landOracle(w, set, ugs)
		if err != nil {
			t.Fatalf("%s set %d: oracle: %v", ctx, si, err)
		}
		got, err := landAll(w, set, ugs)
		if err != nil {
			t.Fatalf("%s set %d: Land: %v", ctx, si, err)
		}
		if err := sameLandings(got, want); err != nil {
			t.Fatalf("%s set %d: %v", ctx, si, err)
		}
		for _, l := range got {
			if l.ing == bgp.InvalidIngress {
				if !math.IsNaN(l.ms) {
					t.Fatalf("%s set %d: a UG with no route has latency %v, want NaN", ctx, si, l.ms)
				}
				dark++
			}
		}
	}
	return dark
}

// landSets returns the advertisements the tests land on: every
// peering, every other peering, and one settlement-free peering alone
// (whose route reaches only the peer's customer cone, so some UGs have
// none).
func landSets(t *testing.T, w *World) [][]bgp.IngressID {
	t.Helper()
	all := w.Deploy.AllPeeringIDs()
	var half []bgp.IngressID
	for i := 0; i < len(all); i += 2 {
		half = append(half, all[i])
	}
	for _, pr := range w.Deploy.Peerings {
		if pr.ClassAtPeer == bgp.ClassPeer {
			return [][]bgp.IngressID{all, half, {pr.ID}}
		}
	}
	t.Fatal("deployment has no settlement-free peering")
	return nil
}

func landUGs(t *testing.T, w *World) []usergroup.UG {
	t.Helper()
	ugs, err := usergroup.Build(w.Graph, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ugs.UGs
}

func TestLandMatchesResolveRouteLatency(t *testing.T) {
	w := testWorld(t)
	ugs := landUGs(t, w)
	sets := landSets(t, w)

	if dark := checkLand(t, w, ugs, sets, "day 0"); dark == 0 {
		t.Fatal("no UG without a route: the no-route case is untested")
	}

	pop := w.Deploy.Peering(sets[0][0]).PoP
	if err := w.ApplyEvent(Event{Kind: EventPoPDown, PoP: pop}); err != nil {
		t.Fatal(err)
	}
	checkLand(t, w, ugs, sets, "PoP down")
	got, err := landAll(w, sets[0], ugs)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range got {
		if l.ing != bgp.InvalidIngress && w.Deploy.Peering(l.ing).PoP == pop {
			t.Fatalf("UG %d lands on ingress %d of downed PoP %d", i, l.ing, pop)
		}
	}
	if err := w.ApplyEvent(Event{Kind: EventPoPUp, PoP: pop}); err != nil {
		t.Fatal(err)
	}
	checkLand(t, w, ugs, sets, "PoP up")

	w.SetDay(3)
	checkLand(t, w, ugs, sets, "day 3")
}

// TestLandConcurrent runs Land from many goroutines on a cold cache —
// first callers of a key share one propagation — and checks every
// answer against the oracle computed afterwards on a fresh world. Run
// under -race.
func TestLandConcurrent(t *testing.T) {
	w := testWorld(t)
	ugs := landUGs(t, w)
	sets := landSets(t, w)

	const callers = 8
	got := make([][][]landing, callers)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = make([][]landing, len(sets))
			for k := range sets {
				si := (c + k) % len(sets)
				l, err := landAll(w, sets[si], ugs)
				if err != nil {
					errs <- err
					return
				}
				got[c][si] = l
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fresh := testWorld(t)
	for si, set := range sets {
		want, err := landOracle(fresh, set, ugs)
		if err != nil {
			t.Fatal(err)
		}
		for c := range got {
			if err := sameLandings(got[c][si], want); err != nil {
				t.Fatalf("caller %d set %d: %v", c, si, err)
			}
		}
	}
}
