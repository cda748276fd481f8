package netsim

// Differential property tests for the flat (slice/CSR) world caches:
// the dense rows must be strictly ascending and agree with a fresh
// world on random topologies, across day walks and chaos events,
// and the CacheStats counters must account for every hit, miss, and
// invalidation the flat layout performs.

import (
	"slices"
	"testing"
)

func TestFlatDifferentialSliceVsMapSemantics(t *testing.T) {
	daySeqs := [][]int{
		{0, 3, 1},
		{4, 4, 9},
		{7, 0, 2},
	}
	for trial := int64(0); trial < 3; trial++ {
		w, fresh := diffWorldPair(t, trial)
		all := w.Deploy.AllPeeringIDs()
		asns := sampleASNs(w.Graph, 8)

		for _, day := range daySeqs[trial] {
			w.SetDay(day)
			fw := fresh(day)
			for _, asn := range asns {
				ids, err := w.CompliantIngressIDs(asn)
				if err != nil {
					t.Fatal(err)
				}
				for k := 1; k < len(ids); k++ {
					if ids[k-1] >= ids[k] {
						t.Fatalf("trial %d day %d AS %v: compliant row not strictly ascending: %v",
							trial, day, asn, ids)
					}
				}
				fids, err := fw.CompliantIngressIDs(asn)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(ids, fids) {
					t.Fatalf("trial %d day %d AS %v: cached flat row != fresh flat row",
						trial, day, asn)
				}

				// prefScore memo: second read must be a pure hit with an
				// identical value.
				ing := all[int(asn)%len(all)]
				h0 := w.obs.prefHits.Value()
				v1 := w.prefScore(asn, ing)
				v2 := w.prefScore(asn, ing)
				if v1 != v2 {
					t.Fatalf("trial %d AS %v ing %d: prefScore not stable: %v vs %v",
						trial, asn, ing, v1, v2)
				}
				if hits := w.obs.prefHits.Value() - h0; hits < 1 {
					t.Fatalf("trial %d AS %v: repeated prefScore recorded %d hits, want >=1",
						trial, asn, hits)
				}
			}
		}
	}
}

func TestFlatDifferentialResolveCacheStats(t *testing.T) {
	w, _ := diffWorldPair(t, 11)
	all := w.Deploy.AllPeeringIDs()

	s0 := w.CacheStats()
	if _, err := w.ResolveIngress(all); err != nil {
		t.Fatal(err)
	}
	s1 := w.CacheStats()
	if s1.ResolveMisses != s0.ResolveMisses+1 {
		t.Fatalf("first resolve: misses %d -> %d, want +1", s0.ResolveMisses, s1.ResolveMisses)
	}

	// A permuted peering list is the same canonical set: must hit, not
	// miss — the hashed-bucket lookup is order-insensitive.
	perm := slices.Clone(all)
	slices.Reverse(perm)
	a, err := w.ResolveIngress(perm)
	if err != nil {
		t.Fatal(err)
	}
	s2 := w.CacheStats()
	if s2.ResolveHits != s1.ResolveHits+1 || s2.ResolveMisses != s1.ResolveMisses {
		t.Fatalf("permuted resolve: hits %d->%d misses %d->%d, want exactly one hit",
			s1.ResolveHits, s2.ResolveHits, s1.ResolveMisses, s2.ResolveMisses)
	}
	b, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	if !routesEqual(a, b) {
		t.Fatal("permuted resolve returned different routes than canonical order")
	}

	// BestIngressLatency: first query per (AS, metro) misses, repeat hits.
	asn := sampleASNs(w.Graph, 1)[0]
	metro := w.Graph.AS(asn).Metros[0]
	miss0, hits0 := w.obs.bestMiss.Value(), w.obs.bestHits.Value()
	if _, _, err := w.BestIngressLatency(asn, metro); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.BestIngressLatency(asn, metro); err != nil {
		t.Fatal(err)
	}
	if misses, hits := w.obs.bestMiss.Value()-miss0, w.obs.bestHits.Value()-hits0; misses != 1 || hits != 1 {
		t.Fatalf("best-ingress pair: misses +%d hits +%d, want +1/+1", misses, hits)
	}
}

func TestFlatDifferentialChaosInvalidations(t *testing.T) {
	w, fresh := diffWorldPair(t, 13)
	all := w.Deploy.AllPeeringIDs()
	asn := sampleASNs(w.Graph, 1)[0]

	// Warm every cache the events should invalidate.
	if _, err := w.ResolveIngress(all); err != nil {
		t.Fatal(err)
	}
	w.prefScore(asn, all[1])
	metro := w.Graph.AS(asn).Metros[0]
	if _, _, err := w.BestIngressLatency(asn, metro); err != nil {
		t.Fatal(err)
	}

	events := []Event{
		{Kind: EventPeeringDown, Ingress: all[0]},
		{Kind: EventPrefFlip, AS: asn, Ingress: all[1]},
		{Kind: EventLatencySpike, Ingress: all[1%len(all)], Ms: 25},
		{Kind: EventPeeringUp, Ingress: all[0]},
	}
	s0, inval0 := w.CacheStats(), w.obs.prefInval.Value()
	for _, ev := range events {
		if err := w.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	s1 := w.CacheStats()
	if s1.ResolveInvalidations <= s0.ResolveInvalidations {
		t.Fatal("peering churn did not invalidate any resolve entries")
	}
	if inval := w.obs.prefInval.Value() - inval0; inval != 1 {
		t.Fatalf("pref flip invalidations +%d, want +1 (warmed row)", inval)
	}

	// After the identical event history, flat caches agree with a fresh
	// twin on every surface.
	fw := fresh(0)
	for _, ev := range events {
		if err := fw.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	a, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fw.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	if !routesEqual(a, b) {
		t.Fatal("flat caches diverge from fresh world after chaos events")
	}
	am, ai, aerr := w.BestIngressLatency(asn, metro)
	bm, bi, berr := fw.BestIngressLatency(asn, metro)
	if (aerr == nil) != (berr == nil) || am != bm || ai != bi {
		t.Fatalf("BestIngressLatency diverges after chaos: (%v,%v,%v) vs (%v,%v,%v)",
			am, ai, aerr, bm, bi, berr)
	}
	ids, err := w.CompliantIngressIDs(asn)
	if err != nil {
		t.Fatal(err)
	}
	fids, err := fw.CompliantIngressIDs(asn)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, fids) {
		t.Fatal("compliant rows diverge after chaos events")
	}
}
