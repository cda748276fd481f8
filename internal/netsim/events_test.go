package netsim

// Tests for the ApplyEvent/Subscribe hook layer and its precise cache
// invalidation: failures remove exactly the affected routes, recoveries
// restore the pre-failure selection from cache, preference flips touch
// only entries containing the flipped ingress, and BestIngressLatency
// memo entries survive events that cannot change them.

import (
	"testing"

	"painter/internal/bgp"
	"painter/internal/topology"
)

// selectedIngresses returns the set of ingresses appearing in a
// selection.
func selectedIngresses(g *topology.Graph, sel *bgp.Result) map[bgp.IngressID]bool {
	out := make(map[bgp.IngressID]bool)
	for _, as := range g.ASNs() {
		if r, ok := sel.Route(as); ok {
			out[r.Ingress] = true
		}
	}
	return out
}

// someSelectedIngress picks an ingress that at least one AS selects.
func someSelectedIngress(t *testing.T, g *topology.Graph, sel *bgp.Result) bgp.IngressID {
	t.Helper()
	for _, as := range g.ASNs() {
		if r, ok := sel.Route(as); ok {
			return r.Ingress
		}
	}
	t.Fatal("empty selection")
	return bgp.InvalidIngress
}

func TestPeeringDownRemovesRoutesAndUpRestoresFromCache(t *testing.T) {
	w := testWorld(t)
	all := w.Deploy.AllPeeringIDs()
	before, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	victim := someSelectedIngress(t, w.Graph, before)

	if err := w.ApplyEvent(Event{Kind: EventPeeringDown, Ingress: victim}); err != nil {
		t.Fatal(err)
	}
	if !w.IngressDown(victim) {
		t.Fatal("victim not reported down")
	}
	during, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	if selectedIngresses(w.Graph, during)[victim] {
		t.Errorf("ingress %d still selected while down", victim)
	}

	// Recovery must reproduce the original selection exactly — and from
	// the cache: the canonical key filters down peerings before lookup,
	// so the pre-failure entry is still valid.
	s0 := w.CacheStats()
	if err := w.ApplyEvent(Event{Kind: EventPeeringUp, Ingress: victim}); err != nil {
		t.Fatal(err)
	}
	after, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	if !routesEqual(before, after) {
		t.Error("selection after recovery differs from pre-failure selection")
	}
	s1 := w.CacheStats()
	if s1.ResolveHits != s0.ResolveHits+1 || s1.ResolveMisses != s0.ResolveMisses {
		t.Errorf("recovery resolve: hits %d→%d misses %d→%d; want a cache hit",
			s0.ResolveHits, s1.ResolveHits, s0.ResolveMisses, s1.ResolveMisses)
	}
}

func TestPoPOutageDownsAllItsPeeringsAndOverlap(t *testing.T) {
	w := testWorld(t)
	pop := w.Deploy.PoPs[0].ID
	at := w.Deploy.PeeringsAt(pop)
	if len(at) == 0 {
		t.Fatal("PoP 0 has no peerings")
	}
	direct := at[0]

	// Fail one peering directly, then the whole PoP.
	if err := w.ApplyEvent(Event{Kind: EventPeeringDown, Ingress: direct}); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyEvent(Event{Kind: EventPoPDown, PoP: pop}); err != nil {
		t.Fatal(err)
	}
	for _, id := range at {
		if !w.IngressDown(id) {
			t.Errorf("peering %d at failed PoP reported up", id)
		}
	}

	// PoP recovery must NOT resurrect the individually failed peering.
	if err := w.ApplyEvent(Event{Kind: EventPoPUp, PoP: pop}); err != nil {
		t.Fatal(err)
	}
	if !w.IngressDown(direct) {
		t.Error("individually failed peering came up with its PoP")
	}
	for _, id := range at[1:] {
		if w.IngressDown(id) {
			t.Errorf("peering %d still down after PoP recovery", id)
		}
	}
	if err := w.ApplyEvent(Event{Kind: EventPeeringUp, Ingress: direct}); err != nil {
		t.Fatal(err)
	}
	if w.IngressDown(direct) {
		t.Error("peering still down after explicit recovery")
	}

	live := w.LiveIngresses(w.Deploy.AllPeeringIDs())
	if len(live) != len(w.Deploy.AllPeeringIDs()) {
		t.Errorf("expected all %d peerings live, got %d", len(w.Deploy.AllPeeringIDs()), len(live))
	}
}

func TestLatencySpikeVisibleAndCleared(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	ing := w.Deploy.AllPeeringIDs()[0]
	base, err := w.LatencyMs(asn, metro, ing)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyEvent(Event{Kind: EventLatencySpike, Ingress: ing, Ms: 42.5}); err != nil {
		t.Fatal(err)
	}
	spiked, err := w.LatencyMs(asn, metro, ing)
	if err != nil {
		t.Fatal(err)
	}
	if spiked != base+42.5 {
		t.Errorf("spiked latency %v, want %v", spiked, base+42.5)
	}
	if b, _ := w.BaseLatencyMs(asn, metro, ing); b+w.dayAdjustMs(asn, metro, ing) != base {
		t.Error("BaseLatencyMs affected by spike")
	}
	if err := w.ApplyEvent(Event{Kind: EventLatencySpike, Ingress: ing, Ms: 0}); err != nil {
		t.Fatal(err)
	}
	cleared, err := w.LatencyMs(asn, metro, ing)
	if err != nil {
		t.Fatal(err)
	}
	if cleared != base {
		t.Errorf("latency after clear %v, want %v", cleared, base)
	}
}

func TestProbeLossSetClampCleared(t *testing.T) {
	w := testWorld(t)
	ing := w.Deploy.AllPeeringIDs()[0]
	if err := w.ApplyEvent(Event{Kind: EventProbeLoss, Ingress: ing, Pct: 35}); err != nil {
		t.Fatal(err)
	}
	if got := w.probeLossF[ing]; got != 35 {
		t.Errorf("loss = %d, want 35", got)
	}
	if err := w.ApplyEvent(Event{Kind: EventProbeLoss, Ingress: ing, Pct: 250}); err != nil {
		t.Fatal(err)
	}
	if got := w.probeLossF[ing]; got != 100 {
		t.Errorf("loss = %d, want clamp to 100", got)
	}
	if err := w.ApplyEvent(Event{Kind: EventProbeLoss, Ingress: ing, Pct: 0}); err != nil {
		t.Fatal(err)
	}
	if got := w.probeLossF[ing]; got != 0 {
		t.Errorf("loss = %d after clear, want 0", got)
	}
}

func TestPrefFlipInvalidatesOnlyEntriesContainingIngress(t *testing.T) {
	w := testWorld(t)
	all := w.Deploy.AllPeeringIDs()
	if len(all) < 3 {
		t.Fatal("need >=3 peerings")
	}
	// Warm the entry over every peering, then flip the lowest-ID ingress
	// some AS actually selects there (held by the lowest such AS), so
	// the flip is visible, and warm the entry over every other peering.
	withSel, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	var (
		as      topology.ASN
		flipped bgp.IngressID
		found   bool
	)
	for _, n := range w.Graph.ASNs() {
		r, ok := withSel.Route(n)
		if !ok {
			continue
		}
		if !found || r.Ingress < flipped || (r.Ingress == flipped && n < as) {
			as, flipped, found = n, r.Ingress, true
		}
	}
	if !found {
		t.Fatal("no AS selects any peering")
	}
	var without []bgp.IngressID
	for _, id := range all {
		if id != flipped {
			without = append(without, id)
		}
	}
	if _, err := w.ResolveIngress(without); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyEvent(Event{Kind: EventPrefFlip, AS: as, Ingress: flipped}); err != nil {
		t.Fatal(err)
	}

	// The entry not containing the flipped ingress must still be cached.
	s0 := w.CacheStats()
	if _, err := w.ResolveIngress(without); err != nil {
		t.Fatal(err)
	}
	s1 := w.CacheStats()
	if s1.ResolveHits != s0.ResolveHits+1 || s1.ResolveMisses != s0.ResolveMisses {
		t.Errorf("unaffected entry: hits %d→%d misses %d→%d; want a cache hit",
			s0.ResolveHits, s1.ResolveHits, s0.ResolveMisses, s1.ResolveMisses)
	}
	// The entry containing it must have been dropped (a fresh miss).
	if _, err := w.ResolveIngress(all); err != nil {
		t.Fatal(err)
	}
	s2 := w.CacheStats()
	if s2.ResolveMisses != s1.ResolveMisses+1 {
		t.Errorf("affected entry: misses %d→%d, want one new miss", s1.ResolveMisses, s2.ResolveMisses)
	}
	// The flip's invalidation is visible in the unified stats: at least
	// one resolve entry was dropped, and the event counter advanced.
	if s0.ResolveInvalidations == 0 {
		t.Error("pref flip recorded no resolve-cache invalidation")
	}
}

func TestPrefFlipChangesPreference(t *testing.T) {
	w := testWorld(t)
	ing := w.Deploy.AllPeeringIDs()[0]
	// Preference scores are in [0,1); across several ASes at least one
	// flip must change the score (equal 53-bit draws are astronomically
	// unlikely).
	changed := false
	for _, as := range w.Graph.ASNs()[:10] {
		before := w.prefScore(as, ing)
		if err := w.ApplyEvent(Event{Kind: EventPrefFlip, AS: as, Ingress: ing}); err != nil {
			t.Fatal(err)
		}
		if w.prefScore(as, ing) != before {
			changed = true
		}
	}
	if !changed {
		t.Error("ten preference flips left every score unchanged")
	}
}

func TestBestIngressLatencyTracksFailures(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	ms0, ing0, err := w.BestIngressLatency(asn, metro)
	if err != nil {
		t.Fatal(err)
	}

	// Failing the winner must yield a strictly-no-better different best.
	if err := w.ApplyEvent(Event{Kind: EventPeeringDown, Ingress: ing0}); err != nil {
		t.Fatal(err)
	}
	ms1, ing1, err := w.BestIngressLatency(asn, metro)
	if err != nil {
		t.Fatal(err)
	}
	if ing1 == ing0 {
		t.Error("failed ingress still reported as best")
	}
	if ms1 < ms0 {
		t.Errorf("best improved after failure: %v -> %v", ms0, ms1)
	}
	// Memoized answer must agree with a fresh computation.
	if fm, fi, ferr := w.bestIngressLatency(asn, metro); ferr != nil || fm != ms1 || fi != ing1 {
		t.Errorf("memo (%v, %v) != fresh (%v, %v, %v)", ms1, ing1, fm, fi, ferr)
	}

	// Recovery must restore the original winner.
	if err := w.ApplyEvent(Event{Kind: EventPeeringUp, Ingress: ing0}); err != nil {
		t.Fatal(err)
	}
	ms2, ing2, err := w.BestIngressLatency(asn, metro)
	if err != nil {
		t.Fatal(err)
	}
	if ms2 != ms0 || ing2 != ing0 {
		t.Errorf("best after recovery (%v, %v), want original (%v, %v)", ms2, ing2, ms0, ing0)
	}
}

func TestBestIngressMemoSurvivesIrrelevantFailure(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	_, ing0, err := w.BestIngressLatency(asn, metro)
	if err != nil {
		t.Fatal(err)
	}
	// Fail some other ingress: the memo entry's winner is unaffected, so
	// the entry must survive (removing a loser cannot change a minimum).
	var other bgp.IngressID = bgp.InvalidIngress
	for _, id := range w.Deploy.AllPeeringIDs() {
		if id != ing0 {
			other = id
			break
		}
	}
	if other == bgp.InvalidIngress {
		t.Skip("only one peering")
	}
	if err := w.ApplyEvent(Event{Kind: EventPeeringDown, Ingress: other}); err != nil {
		t.Fatal(err)
	}
	if !w.bestCached(asn, metro) {
		t.Error("memo entry dropped by a failure that cannot change it")
	}
	if err := w.ApplyEvent(Event{Kind: EventPeeringUp, Ingress: other}); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeOrderSeqAndCancel(t *testing.T) {
	w := testWorld(t)
	ing := w.Deploy.AllPeeringIDs()[0]
	var got []string
	c1 := w.Subscribe(func(ev Event) { got = append(got, "a:"+ev.Kind.String()) })
	c2 := w.Subscribe(func(ev Event) { got = append(got, "b:"+ev.Kind.String()) })
	defer c2()

	if err := w.ApplyEvent(Event{Kind: EventPeeringDown, Ingress: ing}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a:peering-down" || got[1] != "b:peering-down" {
		t.Fatalf("notify order wrong: %v", got)
	}

	// Failed events must notify nobody.
	if err := w.ApplyEvent(Event{Kind: EventPeeringDown, Ingress: bgp.IngressID(1 << 30)}); err == nil {
		t.Fatal("unknown peering accepted")
	}
	if len(got) != 2 {
		t.Fatalf("failed event notified subscribers: %v", got)
	}

	c1()
	if err := w.ApplyEvent(Event{Kind: EventPeeringUp, Ingress: ing}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != "b:peering-up" {
		t.Fatalf("cancel did not remove subscriber: %v", got)
	}

	// Seq is assigned in application order, monotonically.
	var seqs []uint64
	cancel := w.Subscribe(func(ev Event) { seqs = append(seqs, ev.Seq) })
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := w.ApplyEvent(Event{Kind: EventLatencySpike, Ingress: ing, Ms: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Errorf("seq not monotonic: %v", seqs)
		}
	}
}

func TestApplyEventUnknownTargets(t *testing.T) {
	w := testWorld(t)
	bad := []Event{
		{Kind: EventPeeringDown, Ingress: bgp.IngressID(1 << 30)},
		{Kind: EventPeeringUp, Ingress: bgp.IngressID(1 << 30)},
		{Kind: EventPoPDown, PoP: 9999},
		{Kind: EventPoPUp, PoP: 9999},
		{Kind: EventLatencySpike, Ingress: bgp.IngressID(1 << 30), Ms: 5},
		{Kind: EventProbeLoss, Ingress: bgp.IngressID(1 << 30), Pct: 5},
		{Kind: EventPrefFlip, AS: 1, Ingress: bgp.IngressID(1 << 30)},
		{Kind: EventPrefFlip, AS: topology.ASN(1 << 30), Ingress: w.Deploy.AllPeeringIDs()[0]},
		{Kind: EventKind(99)},
	}
	for _, ev := range bad {
		if err := w.ApplyEvent(ev); err == nil {
			t.Errorf("event %v accepted, want error", ev)
		}
	}
}
