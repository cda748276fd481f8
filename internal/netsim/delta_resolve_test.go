package netsim

// Differential and frontier tests for delta-served resolves: a world
// serving cache misses with PropagateDelta must answer every query
// identically to a full propagation over a twin world's state, across
// every event kind and across randomized chaos schedules. The
// per-kind table also pins the cache mechanics — which kinds are served
// by delta repair, which are pure hits, and which never touch the
// propagation cache at all.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// deltaWorldPair builds twin worlds over one topology/deployment/seed:
// the first is the world under test, the second only tracks the same
// events and days so controlResolve can answer from its state.
func deltaWorldPair(t *testing.T, trial int64) (*World, *World) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Seed: 500 + trial, Tier1: 3, Tier2: 10, Stubs: 60,
		MeanStubProviders: 2.2, Tier2PeerProb: 0.3,
		EnterpriseFrac: 0.35, ContentFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{
		Name: "delta", PoPMetros: 6, PeerFrac: 0.7, TransitProviders: 2, Seed: 600 + trial,
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := 700 + trial
	dw, err := New(g, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := New(g, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return dw, cw
}

// controlResolve answers a resolve on the control world by a full
// propagation of its live peerings, bypassing the propagation cache and
// the stale base pool.
func controlResolve(cw *World, peerings []bgp.IngressID) (*bgp.Result, error) {
	inj, err := cw.Deploy.Injections(cw.filterLive(slices.Clone(peerings)))
	if err != nil {
		return nil, err
	}
	return bgp.PropagateResult(cw.Graph, inj, cw.TieBreaker())
}

// mustResolveEqual resolves the same peerings on both worlds and fails
// on any divergence.
func mustResolveEqual(t *testing.T, dw, cw *World, peerings []bgp.IngressID, ctx string) {
	t.Helper()
	a, err := dw.ResolveIngress(peerings)
	if err != nil {
		t.Fatalf("%s: delta world resolve: %v", ctx, err)
	}
	b, err := controlResolve(cw, peerings)
	if err != nil {
		t.Fatalf("%s: control world resolve: %v", ctx, err)
	}
	if !routesEqual(a, b) {
		t.Fatalf("%s: delta-served resolve diverges from full propagation", ctx)
	}
}

// TestDeltaResolvePerEventKind walks every event kind through twin
// worlds and pins, per kind, both the answer equivalence and the cache
// mechanics of the re-resolve that follows:
//
//   - peering-down / pop-down: the live-set key changes, so the resolve
//     misses and is repaired by delta from the still-cached pre-event
//     entry (symmetric difference = the withdrawn peerings).
//   - peering-up / pop-up: the live set returns to the pre-event key,
//     so the resolve is a pure cache hit — no propagation of any kind.
//   - latency-spike / probe-loss: route selection is untouched; the
//     entry is never invalidated and the resolve is a pure hit.
//   - pref-flip: the containing entry is evicted to the stale base pool
//     and the re-resolve repairs it by delta seeded at the flipped AS
//     alone (zero peering-set difference).
func TestDeltaResolvePerEventKind(t *testing.T) {
	type kindCase struct {
		name string
		// events applied (after warming) before the measured resolve.
		events    func(w *World, all []bgp.IngressID, flipAS topology.ASN) []Event
		wantDelta bool // measured resolve repaired by delta propagation
		wantHit   bool // measured resolve is a pure cache hit
	}
	cases := []kindCase{
		{
			name: "peering-down",
			events: func(w *World, all []bgp.IngressID, _ topology.ASN) []Event {
				return []Event{{Kind: EventPeeringDown, Ingress: all[0]}}
			},
			wantDelta: true,
		},
		{
			name: "peering-up",
			events: func(w *World, all []bgp.IngressID, _ topology.ASN) []Event {
				return []Event{
					{Kind: EventPeeringDown, Ingress: all[0]},
					{Kind: EventPeeringUp, Ingress: all[0]},
				}
			},
			wantHit: true,
		},
		{
			name: "pop-down",
			events: func(w *World, all []bgp.IngressID, _ topology.ASN) []Event {
				pop := w.popOfIng[all[0]]
				return []Event{{Kind: EventPoPDown, PoP: pop}}
			},
			wantDelta: true,
		},
		{
			name: "pop-up",
			events: func(w *World, all []bgp.IngressID, _ topology.ASN) []Event {
				pop := w.popOfIng[all[0]]
				return []Event{
					{Kind: EventPoPDown, PoP: pop},
					{Kind: EventPoPUp, PoP: pop},
				}
			},
			wantHit: true,
		},
		{
			name: "latency-spike",
			events: func(w *World, all []bgp.IngressID, _ topology.ASN) []Event {
				return []Event{{Kind: EventLatencySpike, Ingress: all[1], Ms: 40}}
			},
			wantHit: true,
		},
		{
			name: "probe-loss",
			events: func(w *World, all []bgp.IngressID, _ topology.ASN) []Event {
				return []Event{{Kind: EventProbeLoss, Ingress: all[1], Pct: 30}}
			},
			wantHit: true,
		},
		{
			name: "pref-flip",
			events: func(w *World, all []bgp.IngressID, flipAS topology.ASN) []Event {
				return []Event{{Kind: EventPrefFlip, AS: flipAS, Ingress: all[1]}}
			},
			wantDelta: true,
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dw, cw := deltaWorldPair(t, int64(i))
			all := dw.Deploy.AllPeeringIDs()
			flipAS := sampleASNs(dw.Graph, 1)[0]
			mustResolveEqual(t, dw, cw, all, "warm")

			before := dw.CacheStats()
			for _, ev := range tc.events(dw, all, flipAS) {
				if err := dw.ApplyEvent(ev); err != nil {
					t.Fatal(err)
				}
				if err := cw.ApplyEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			mustResolveEqual(t, dw, cw, all, tc.name)
			after := dw.CacheStats()

			deltaRuns := after.ResolveDeltaRuns - before.ResolveDeltaRuns
			fullRuns := after.ResolveFullRuns - before.ResolveFullRuns
			hits := after.ResolveHits - before.ResolveHits
			if tc.wantDelta {
				if deltaRuns == 0 {
					t.Errorf("want a delta-served resolve, got delta=%d full=%d hits=%d",
						deltaRuns, fullRuns, hits)
				}
				if fullRuns != 0 {
					t.Errorf("resolve fell back to full propagation (%d runs)", fullRuns)
				}
			}
			if tc.wantHit {
				if hits == 0 || deltaRuns != 0 || fullRuns != 0 {
					t.Errorf("want a pure cache hit, got delta=%d full=%d hits=%d",
						deltaRuns, fullRuns, hits)
				}
			}
			if tc.name == "pref-flip" && after.ResolveInvalidations == before.ResolveInvalidations {
				t.Error("pref flip did not evict the containing resolve entry")
			}
			// A prefix-sized subset must agree too (delta from a subset base).
			mustResolveEqual(t, dw, cw, all[:(len(all)+1)/2], tc.name+" subset")
		})
	}
}

// TestDeltaResolveChaosDifferential replays randomized chaos schedules
// — every event kind plus day changes — through the twin worlds,
// resolving the full set and random subsets after every event. The
// delta world must answer identically to the full-propagation control
// throughout, and must actually be serving resolves by delta repair.
func TestDeltaResolveChaosDifferential(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		dw, cw := deltaWorldPair(t, 20+trial)
		all := dw.Deploy.AllPeeringIDs()
		rng := rand.New(rand.NewSource(900 + trial))
		asns := sampleASNs(dw.Graph, 8)

		var down []bgp.IngressID
		var popsDown []cloud.PoPID
		apply := func(ev Event) {
			t.Helper()
			if err := dw.ApplyEvent(ev); err != nil {
				t.Fatal(err)
			}
			if err := cw.ApplyEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 40; step++ {
			switch rng.Intn(8) {
			case 0:
				ing := all[rng.Intn(len(all))]
				apply(Event{Kind: EventPeeringDown, Ingress: ing})
				down = append(down, ing)
			case 1:
				if len(down) > 0 {
					i := rng.Intn(len(down))
					apply(Event{Kind: EventPeeringUp, Ingress: down[i]})
					down = append(down[:i], down[i+1:]...)
				}
			case 2:
				pop := dw.popOfIng[all[rng.Intn(len(all))]]
				apply(Event{Kind: EventPoPDown, PoP: pop})
				popsDown = append(popsDown, pop)
			case 3:
				if len(popsDown) > 0 {
					i := rng.Intn(len(popsDown))
					apply(Event{Kind: EventPoPUp, PoP: popsDown[i]})
					popsDown = append(popsDown[:i], popsDown[i+1:]...)
				}
			case 4:
				apply(Event{Kind: EventLatencySpike, Ingress: all[rng.Intn(len(all))], Ms: float64(rng.Intn(80))})
			case 5:
				apply(Event{Kind: EventProbeLoss, Ingress: all[rng.Intn(len(all))], Pct: rng.Intn(100)})
			case 6:
				apply(Event{Kind: EventPrefFlip, AS: asns[rng.Intn(len(asns))], Ingress: all[rng.Intn(len(all))]})
			case 7:
				d := rng.Intn(4)
				dw.SetDay(d)
				cw.SetDay(d)
			}
			mustResolveEqual(t, dw, cw, all, "chaos full set")
			// A random subset, identical across the twins.
			n := 1 + rng.Intn(len(all)-1)
			sub := make([]bgp.IngressID, 0, n)
			for _, j := range rng.Perm(len(all))[:n] {
				sub = append(sub, all[j])
			}
			mustResolveEqual(t, dw, cw, sub, "chaos subset")
		}
		if dw.CacheStats().ResolveDeltaRuns == 0 {
			t.Error("chaos schedule never exercised a delta-served resolve")
		}
	}
}

// TestAnycastShift pins the incremental anycast entry point: a nil prev
// yields every settled AS, an unchanged world yields the same Result
// pointer with an empty changed set, and a routing event yields exactly
// the ASes whose selection moved.
func TestAnycastShift(t *testing.T) {
	dw, cw := deltaWorldPair(t, 11)
	res1, changed1, err := dw.AnycastShift(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed1) != res1.Len() {
		t.Fatalf("nil prev: %d changed != %d settled", len(changed1), res1.Len())
	}
	res2, changed2, err := dw.AnycastShift(res1)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 || len(changed2) != 0 {
		t.Fatalf("unchanged world: want same Result and empty diff, got %d changed", len(changed2))
	}

	ev := Event{Kind: EventPrefFlip, AS: sampleASNs(dw.Graph, 1)[0], Ingress: dw.Deploy.AllPeeringIDs()[0]}
	if err := dw.ApplyEvent(ev); err != nil {
		t.Fatal(err)
	}
	if err := cw.ApplyEvent(ev); err != nil {
		t.Fatal(err)
	}
	res3, changed3, err := dw.AnycastShift(res2)
	if err != nil {
		t.Fatal(err)
	}
	// The changed set must be exactly the selection differences, and the
	// delta-served selections must match the full-propagation control.
	want := 0
	for _, as := range dw.Graph.ASNs() {
		p, pok := res2.Route(as)
		r, rok := res3.Route(as)
		if pok != rok || p != r {
			want++
		}
	}
	if len(changed3) != want {
		t.Fatalf("changed set has %d ASes, selection diff has %d", len(changed3), want)
	}
	ctrl, err := controlResolve(cw, cw.Deploy.AllPeeringIDs())
	if err != nil {
		t.Fatal(err)
	}
	if !routesEqual(res3, ctrl) {
		t.Fatal("post-flip delta-served selections diverge from control")
	}
}

// TestCatchmentAnalyzerDifferential drives a CatchmentAnalyzer through
// every event kind and a day change, comparing each incremental Update
// against a from-scratch analyzeCatchment of the same world.
func TestCatchmentAnalyzerDifferential(t *testing.T) {
	dw, _ := deltaWorldPair(t, 31)
	ugs, err := usergroup.Build(dw.Graph, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	an := NewCatchmentAnalyzer(dw, ugs, 0)
	defer an.Close()

	all := dw.Deploy.AllPeeringIDs()
	flipAS := sampleASNs(dw.Graph, 2)
	steps := []func() error{
		func() error { return nil }, // initial full compute
		func() error { return dw.ApplyEvent(Event{Kind: EventPeeringDown, Ingress: all[0]}) },
		func() error { return dw.ApplyEvent(Event{Kind: EventPrefFlip, AS: flipAS[0], Ingress: all[1]}) },
		func() error { return dw.ApplyEvent(Event{Kind: EventLatencySpike, Ingress: all[2%len(all)], Ms: 25}) },
		func() error { return dw.ApplyEvent(Event{Kind: EventPoPDown, PoP: dw.popOfIng[all[3%len(all)]]}) },
		func() error { return dw.ApplyEvent(Event{Kind: EventProbeLoss, Ingress: all[1], Pct: 10}) },
		func() error { return dw.ApplyEvent(Event{Kind: EventPeeringUp, Ingress: all[0]}) },
		func() error { return dw.ApplyEvent(Event{Kind: EventPoPUp, PoP: dw.popOfIng[all[3%len(all)]]}) },
		func() error { return dw.ApplyEvent(Event{Kind: EventPrefFlip, AS: flipAS[1], Ingress: all[0]}) },
		func() error { dw.SetDay(2); return nil },
		func() error { return dw.ApplyEvent(Event{Kind: EventPeeringDown, Ingress: all[1]}) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		inc, err := an.Update()
		if err != nil {
			t.Fatalf("step %d: Update: %v", i, err)
		}
		ref, err := analyzeCatchment(dw, ugs, 0)
		if err != nil {
			t.Fatalf("step %d: analyzeCatchment: %v", i, err)
		}
		assertCatchmentsEqual(t, i, inc, ref)
	}
}

func assertCatchmentsEqual(t *testing.T, step int, a, b *Catchment) {
	t.Helper()
	if a.UGs != b.UGs {
		t.Fatalf("step %d: UGs %d != %d", step, a.UGs, b.UGs)
	}
	if a.InflatedFrac != b.InflatedFrac {
		t.Fatalf("step %d: InflatedFrac %v != %v", step, a.InflatedFrac, b.InflatedFrac)
	}
	if len(a.PoPShare) != len(b.PoPShare) {
		t.Fatalf("step %d: PoPShare sizes %d != %d", step, len(a.PoPShare), len(b.PoPShare))
	}
	for id, s := range a.PoPShare {
		if b.PoPShare[id] != s {
			t.Fatalf("step %d: PoPShare[%d] %v != %v", step, id, s, b.PoPShare[id])
		}
	}
	// A CDF is its sorted samples: equal samples, equal distribution.
	if !reflect.DeepEqual(a.InflationKm, b.InflationKm) {
		t.Fatalf("step %d: InflationKm CDFs differ", step)
	}
	if !reflect.DeepEqual(a.InflationMs, b.InflationMs) {
		t.Fatalf("step %d: InflationMs CDFs differ", step)
	}
}

// TestStaleBasePoolLifecycle pins the stale-pool bookkeeping: a flip
// moves the evicted entry into the pool, a second flip accumulates on
// it, and SetDay clears it.
func TestStaleBasePoolLifecycle(t *testing.T) {
	dw, _ := deltaWorldPair(t, 41)
	all := dw.Deploy.AllPeeringIDs()
	if _, err := dw.ResolveIngress(all); err != nil {
		t.Fatal(err)
	}
	as := sampleASNs(dw.Graph, 1)[0]
	if err := dw.ApplyEvent(Event{Kind: EventPrefFlip, AS: as, Ingress: all[0]}); err != nil {
		t.Fatal(err)
	}
	dw.resolveMu.Lock()
	n := len(dw.staleBases)
	dw.resolveMu.Unlock()
	if n != 1 {
		t.Fatalf("want 1 stale base after flip, got %d", n)
	}
	// A second flip on an ingress the stale base contains accumulates on
	// the same base (no duplicate AS entries).
	if err := dw.ApplyEvent(Event{Kind: EventPrefFlip, AS: as, Ingress: all[1]}); err != nil {
		t.Fatal(err)
	}
	dw.resolveMu.Lock()
	flips := len(dw.staleBases[0].flips)
	dw.resolveMu.Unlock()
	if flips != 1 {
		t.Fatalf("want deduplicated flip list of 1 AS, got %d", flips)
	}
	dw.SetDay(3)
	dw.resolveMu.Lock()
	n = len(dw.staleBases)
	dw.resolveMu.Unlock()
	if n != 0 {
		t.Fatalf("SetDay must clear the stale pool, %d left", n)
	}
}
