package netsim

// Tests for the world-level caches: the propagation cache (canonical
// peering-set + day keying, SetDay invalidation, drift visibility) and
// goroutine safety of the concurrent query surface.

import (
	"bytes"
	"sync"
	"testing"

	"painter/internal/bgp"
)

// routesEqual reports whether two resolves select identical routes at
// every AS (canonical Result bytes).
func routesEqual(a, b *bgp.Result) bool { return bytes.Equal(a.Bytes(), b.Bytes()) }

// TestResolveCachePermutedPeeringsHit asserts that a permuted-but-equal
// peering slice resolves from the cache: the key is canonical (sorted),
// so order must not matter.
func TestResolveCachePermutedPeeringsHit(t *testing.T) {
	w := testWorld(t)
	all := w.Deploy.AllPeeringIDs()
	if len(all) < 2 {
		t.Fatal("need at least two peerings")
	}
	a, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	s0 := w.CacheStats()

	// Reverse the slice: same set, different order.
	rev := make([]bgp.IngressID, len(all))
	for i, id := range all {
		rev[len(all)-1-i] = id
	}
	b, err := w.ResolveIngress(rev)
	if err != nil {
		t.Fatal(err)
	}
	s1 := w.CacheStats()
	if s1.ResolveHits != s0.ResolveHits+1 || s1.ResolveMisses != s0.ResolveMisses {
		t.Errorf("permuted resolve: hits %d→%d misses %d→%d; want one new hit, no new miss",
			s0.ResolveHits, s1.ResolveHits, s0.ResolveMisses, s1.ResolveMisses)
	}
	if !routesEqual(a, b) {
		t.Error("permuted peering slice resolved to a different selection")
	}

	// A genuinely different set must miss.
	if _, err := w.ResolveIngress(all[:len(all)-1]); err != nil {
		t.Fatal(err)
	}
	s2 := w.CacheStats()
	if s2.ResolveMisses != s1.ResolveMisses+1 {
		t.Errorf("subset resolve: misses %d→%d, want one new miss", s1.ResolveMisses, s2.ResolveMisses)
	}
}

// TestResolveCacheInvalidatedBySetDay asserts the Fig. 7 scenario: after
// SetDay, hidden preferences drift, so some AS must select a different
// route on at least one day — and returning to day 0 must reproduce the
// original selection exactly (the cache was dropped, not stale).
func TestResolveCacheInvalidatedBySetDay(t *testing.T) {
	w := testWorld(t)
	all := w.Deploy.AllPeeringIDs()
	day0, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for day := 1; day <= 15 && !changed; day++ {
		w.SetDay(day)
		sel, err := w.ResolveIngress(all)
		if err != nil {
			t.Fatal(err)
		}
		if !routesEqual(day0, sel) {
			changed = true
		}
	}
	if !changed {
		t.Error("route selection never drifted across days 1..15; SetDay invalidation is untestable")
	}
	w.SetDay(0)
	back, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	if !routesEqual(day0, back) {
		t.Error("day-0 selection not reproduced after SetDay round-trip")
	}
}

// TestWorldQueriesConcurrent hammers the cached query surface from many
// goroutines (run under -race): concurrent first-misses must share one
// propagation run and produce the same result.
func TestWorldQueriesConcurrent(t *testing.T) {
	w := testWorld(t)
	all := w.Deploy.AllPeeringIDs()
	asn, metro := firstStubUG(t, w)

	want, err := w.ResolveIngress(all[:len(all)/2])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Rotate the slice so goroutines present permuted views.
			perm := append(append([]bgp.IngressID{}, all[i%len(all):]...), all[:i%len(all)]...)
			if _, err := w.ResolveIngress(perm); err != nil {
				errs <- err
				return
			}
			got, err := w.ResolveIngress(all[:len(all)/2])
			if err != nil {
				errs <- err
				return
			}
			if !routesEqual(want, got) {
				t.Errorf("goroutine %d: divergent cached selection", i)
			}
			if _, err := w.CompliantIngressIDs(asn); err != nil {
				errs <- err
				return
			}
			if _, _, err := w.BestIngressLatency(asn, metro); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
