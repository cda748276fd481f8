package netsim

import (
	"bytes"
	"math"
	"testing"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/stats"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 21, Tier1: 5, Tier2: 30, Stubs: 300,
		MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.35, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{Name: "test", PoPMetros: 15, PeerFrac: 0.8, TransitProviders: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(g, d, 77)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// firstStubUG returns a stub AS and one of its metros.
func firstStubUG(t *testing.T, w *World) (topology.ASN, string) {
	t.Helper()
	for _, n := range w.Graph.ASNs() {
		a := w.Graph.AS(n)
		if a.Tier == topology.TierStub && len(a.Metros) > 0 {
			return n, a.Metros[0]
		}
	}
	t.Fatal("no stub AS found")
	return 0, ""
}

func TestLatencyDeterministic(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	ing := w.Deploy.AllPeeringIDs()[0]
	a, err := w.LatencyMs(asn, metro, ing)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.LatencyMs(asn, metro, ing)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("latency not deterministic: %v vs %v", a, b)
	}
	// And across World instances with the same seed.
	w2, err := New(w.Graph, w.Deploy, 77)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := w2.LatencyMs(asn, metro, ing)
	if a != c {
		t.Errorf("latency differs across same-seed worlds: %v vs %v", a, c)
	}
	// Different seed should (almost surely) differ.
	w3, _ := New(w.Graph, w.Deploy, 78)
	d, _ := w3.LatencyMs(asn, metro, ing)
	if a == d {
		t.Errorf("latency identical across different seeds (suspicious)")
	}
}

func TestLatencyPositiveAndGroundedInGeography(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	for _, ing := range w.Deploy.AllPeeringIDs() {
		l, err := w.BaseLatencyMs(asn, metro, ing)
		if err != nil {
			t.Fatal(err)
		}
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("latency %v for ingress %d", l, ing)
		}
		if l > 2000 {
			t.Fatalf("latency %v absurdly high", l)
		}
	}
}

func TestLatencyErrors(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	if _, err := w.BaseLatencyMs(asn, metro, 99999); err == nil {
		t.Error("unknown ingress should fail")
	}
	if _, err := w.BaseLatencyMs(asn, "zzz", w.Deploy.AllPeeringIDs()[0]); err == nil {
		t.Error("unknown metro should fail")
	}
}

func TestDayDriftChangesLatency(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	ing := w.Deploy.AllPeeringIDs()[0]
	base, _ := w.LatencyMs(asn, metro, ing)
	w.SetDay(5)
	d5, _ := w.LatencyMs(asn, metro, ing)
	w.SetDay(0)
	back, _ := w.LatencyMs(asn, metro, ing)
	if base != back {
		t.Error("day 0 latency must be reproducible after SetDay round trip")
	}
	if base == d5 {
		t.Error("latency should drift across days")
	}
	// Drift is bounded; a failure day adds FailPenaltyMs on top.
	cfg := DefaultConfig()
	drift := d5 - base
	if drift > cfg.DriftMs+1e-9 {
		drift -= cfg.FailPenaltyMs
	}
	if math.Abs(drift) > cfg.DriftMs+1e-9 {
		t.Errorf("drift %v (net of any failure penalty) exceeds bound", drift)
	}
}

func TestFailureRate(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	ids := w.Deploy.AllPeeringIDs()
	cfg := DefaultConfig()
	fails, total := 0, 0
	for day := 1; day <= 40; day++ {
		w.SetDay(day)
		for _, ing := range ids {
			ms, err := w.LatencyMs(asn, metro, ing)
			if err != nil {
				t.Fatal(err)
			}
			base, err := w.BaseLatencyMs(asn, metro, ing)
			if err != nil {
				t.Fatal(err)
			}
			// Daily drift stays within DriftMs; a failed path adds
			// FailPenaltyMs on top.
			total++
			if ms-base > cfg.DriftMs+1e-9 {
				fails++
			}
		}
	}
	rate := float64(fails) / float64(total)
	want := cfg.DailyFailProb
	if rate < want/4 || rate > want*4 {
		t.Errorf("failure rate %.4f far from configured %.4f", rate, want)
	}
}

// TestPolicyCompliantMatchesBGP compares compliantRow's cached-ancestor
// computation with reachableIngresses' valley-free walk for every AS
// of the world, over the full peering set.
func TestPolicyCompliantMatchesBGP(t *testing.T) {
	w := testWorld(t)
	inj, err := w.Deploy.Injections(w.Deploy.AllPeeringIDs())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range w.Graph.ASNs() {
		fast, err := w.PolicyCompliant(n)
		if err != nil {
			t.Fatal(err)
		}
		slow := reachableIngresses(w.Graph, n, inj)
		if len(fast) != len(slow) {
			t.Fatalf("AS %v: fast=%d slow=%d compliant ingresses", n, len(fast), len(slow))
		}
		for ing := range slow {
			if !fast[ing] {
				t.Fatalf("AS %v: fast set missing ingress %d", n, ing)
			}
		}
	}
}

// reachableIngresses is the test oracle for compliantRow: for one AS,
// the set of ingresses it could possibly use across ALL
// policy-compliant paths (not just the selected one) — the "all
// policy-compliant ingresses" set of §3.1 and §5.2.4. For each
// injection, the AS can reach that ingress if a valley-free path exists
// from the AS to the injection neighbor.
//
// A valley-free path from source AS s to neighbor n (then into the
// cloud) exists iff n is reachable from s by an up*(peer?)down* walk:
// (a) s is in the customer cone of n (pure down from n = pure up from
// s), or (b) s can go up to some AS x that peers with an AS y that has
// n in its customer cone, or (c) s can go up to an AS that has n in its
// customer cone.
func reachableIngresses(g *topology.Graph, src topology.ASN, injections []bgp.Injection) map[bgp.IngressID]bool {
	out := make(map[bgp.IngressID]bool)
	idx := g.Index()
	s, ok := idx.ID(src)
	if !ok {
		return out
	}
	n := idx.Len()

	// inUp: src and every AS reachable from src following provider links.
	// inPeer: ASes adjacent via one peer hop from any AS in inUp.
	inUp := make([]bool, n)
	inPeer := make([]bool, n)
	stack := []int32{s}
	inUp[s] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range idx.Providers(cur) {
			if !inUp[p] {
				inUp[p] = true
				stack = append(stack, p)
			}
		}
	}
	for x := int32(0); x < int32(n); x++ {
		if !inUp[x] {
			continue
		}
		for _, p := range idx.Peers(x) {
			inPeer[p] = true
		}
	}

	for _, inj := range injections {
		if out[inj.Ingress] {
			continue
		}
		ni, _ := idx.ID(inj.Neighbor)
		// The traffic direction is src -> n -> cloud. Export rules
		// constrain which ASes ever HEAR the route:
		//   - customer-class injections (n is cloud's transit provider)
		//     propagate everywhere;
		//   - peer/provider-class injections propagate only down n's
		//     customer cone.
		if inj.Class != bgp.ClassCustomer {
			// The route is heard exactly by n and n's customer cone;
			// src is in that cone iff n is src itself or one of src's
			// transitive providers — i.e., n ∈ inUp.
			if inUp[ni] {
				out[inj.Ingress] = true
			}
			continue
		}
		// Any AS with a valley-free walk to n can use it: n in inUp
		// (straight up), n in inPeer (up then one peer hop), or some
		// transitive provider of n in inUp∪inPeer (up, maybe peer, then
		// down into n). The last case walks up from n.
		seen := make([]bool, n)
		stack = append(stack[:0], ni)
		seen[ni] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if inUp[cur] || inPeer[cur] {
				out[inj.Ingress] = true
				break
			}
			for _, p := range idx.Providers(cur) {
				if !seen[p] {
					seen[p] = true
					stack = append(stack, p)
				}
			}
		}
	}
	return out
}

// oracleGraph builds:
//
//	   1 --peer-- 2          tier-1
//	  /  \       /  \
//	10    11   12    13      tier-2 (customers)
//	 |      \  /      |
//	100     101      102     stubs
//
// plus a peer link 10--12.
func oracleGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	add := func(n topology.ASN, tier topology.Tier) {
		if err := g.AddAS(&topology.AS{ASN: n, Tier: tier}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, topology.TierOne)
	add(2, topology.TierOne)
	for _, n := range []topology.ASN{10, 11, 12, 13} {
		add(n, topology.TierTwo)
	}
	for _, n := range []topology.ASN{100, 101, 102} {
		add(n, topology.TierStub)
	}
	links := []struct {
		a, b topology.ASN
		rel  topology.Relationship
	}{
		{1, 2, topology.RelPeer},
		{1, 10, topology.RelCustomer}, {1, 11, topology.RelCustomer},
		{2, 12, topology.RelCustomer}, {2, 13, topology.RelCustomer},
		{10, 100, topology.RelCustomer},
		{11, 101, topology.RelCustomer}, {12, 101, topology.RelCustomer},
		{13, 102, topology.RelCustomer},
		{10, 12, topology.RelPeer},
	}
	for _, l := range links {
		if err := g.Link(l.a, l.b, l.rel); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestReachableIngresses(t *testing.T) {
	g := oracleGraph(t)
	inj := []bgp.Injection{
		{Neighbor: 10, Class: bgp.ClassCustomer, Ingress: 1}, // transit: reaches all
		{Neighbor: 11, Class: bgp.ClassPeer, Ingress: 2},     // only 11 + cone
		{Neighbor: 13, Class: bgp.ClassPeer, Ingress: 3},     // only 13 + cone
	}
	cases := []struct {
		src  topology.ASN
		want []bgp.IngressID
	}{
		{100, []bgp.IngressID{1}},
		{101, []bgp.IngressID{1, 2}},
		{102, []bgp.IngressID{1, 3}},
		{11, []bgp.IngressID{1, 2}},
		{1, []bgp.IngressID{1}},
	}
	for _, c := range cases {
		got := reachableIngresses(g, c.src, inj)
		if len(got) != len(c.want) {
			t.Errorf("reachableIngresses(%v) = %v, want %v", c.src, got, c.want)
			continue
		}
		for _, w := range c.want {
			if !got[w] {
				t.Errorf("reachableIngresses(%v) missing %d", c.src, w)
			}
		}
	}
}

func TestReachableIngressesContainsSelected(t *testing.T) {
	// Property: whatever route Propagate selects for an AS, its ingress
	// must be in the AS's policy-compliant reachable set.
	g, err := topology.Generate(topology.GenConfig{Seed: 13, Tier1: 4, Tier2: 20, Stubs: 250,
		MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.35, ContentFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	inj := []bgp.Injection{
		{Neighbor: 1000, Class: bgp.ClassCustomer, Ingress: 1},
		{Neighbor: 1003, Class: bgp.ClassPeer, Ingress: 2},
		{Neighbor: 1007, Class: bgp.ClassPeer, Ingress: 3},
		{Neighbor: 1011, Class: bgp.ClassCustomer, Ingress: 4},
	}
	sel, err := bgp.PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.ASNs() {
		r, ok := sel.Route(n)
		if !ok {
			continue
		}
		reach := reachableIngresses(g, n, inj)
		if !reach[r.Ingress] {
			t.Errorf("AS %v selected ingress %d not in reachable set %v", n, r.Ingress, reach)
		}
	}
}

func TestResolveIngressConsistentWithCompliance(t *testing.T) {
	w := testWorld(t)
	// Advertise over a subset of peerings.
	all := w.Deploy.AllPeeringIDs()
	subset := all[:len(all)/3]
	sel, err := w.ResolveIngress(subset)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() == 0 {
		t.Fatal("no AS selected a route")
	}
	inSubset := make(map[bgp.IngressID]bool, len(subset))
	for _, id := range subset {
		inSubset[id] = true
	}
	for _, n := range w.Graph.ASNs() {
		r, ok := sel.Route(n)
		if !ok {
			continue
		}
		if !inSubset[r.Ingress] {
			t.Fatalf("AS %v selected ingress %d not in the advertised subset", n, r.Ingress)
		}
		pc, err := w.PolicyCompliant(n)
		if err != nil {
			t.Fatal(err)
		}
		if !pc[r.Ingress] {
			t.Fatalf("AS %v selected non-policy-compliant ingress %d", n, r.Ingress)
		}
	}
}

func TestResolveIngressDeterministic(t *testing.T) {
	w := testWorld(t)
	all := w.Deploy.AllPeeringIDs()
	a, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("ASes %v select differently across runs", a.Diff(b))
	}
}

func TestHiddenPreferencesVaryAcrossASes(t *testing.T) {
	// Two ASes with the same tied candidates should not always pick the
	// same ingress — hidden preferences are per-AS.
	w := testWorld(t)
	cands := []bgp.Route{
		{Ingress: 1, PathLen: 2, Class: bgp.ClassProvider, Via: 1},
		{Ingress: 2, PathLen: 2, Class: bgp.ClassProvider, Via: 2},
		{Ingress: 3, PathLen: 2, Class: bgp.ClassProvider, Via: 3},
	}
	tb := w.TieBreaker()
	picks := make(map[int]int)
	for asn := topology.ASN(10000); asn < 10100; asn++ {
		picks[tb(asn, cands)]++
	}
	if len(picks) < 2 {
		t.Errorf("all 100 ASes picked the same tied candidate: %v", picks)
	}
}

func TestBestIngressLatency(t *testing.T) {
	w := testWorld(t)
	asn, metro := firstStubUG(t, w)
	best, ing, err := w.BestIngressLatency(asn, metro)
	if err != nil {
		t.Fatal(err)
	}
	if ing == bgp.InvalidIngress {
		t.Fatal("no best ingress")
	}
	pc, _ := w.PolicyCompliant(asn)
	if !pc[ing] {
		t.Error("best ingress not policy compliant")
	}
	for i := range pc {
		l, err := w.BaseLatencyMs(asn, metro, i)
		if err != nil {
			t.Fatal(err)
		}
		if l < best {
			t.Errorf("ingress %d latency %v below reported best %v", i, l, best)
		}
	}
}

func TestAnycastInflationExists(t *testing.T) {
	// Under the full-anycast advertisement some UGs must land on
	// ingresses notably worse than their best — the phenomenon PAINTER
	// exists to fix. Check that at least 10% of stubs have >10ms headroom.
	w := testWorld(t)
	sel, err := w.ResolveIngress(w.Deploy.AllPeeringIDs())
	if err != nil {
		t.Fatal(err)
	}
	total, inflated := 0, 0
	for _, n := range w.Graph.ASNs() {
		a := w.Graph.AS(n)
		if a.Tier != topology.TierStub {
			continue
		}
		r, ok := sel.Route(n)
		if !ok {
			continue
		}
		metro := a.Metros[0]
		anycast, err := w.BaseLatencyMs(n, metro, r.Ingress)
		if err != nil {
			t.Fatal(err)
		}
		best, _, err := w.BestIngressLatency(n, metro)
		if err != nil {
			continue
		}
		total++
		if anycast-best > 10 {
			inflated++
		}
	}
	if total == 0 {
		t.Fatal("no stubs resolved")
	}
	frac := float64(inflated) / float64(total)
	if frac < 0.10 {
		t.Errorf("only %.1f%% of UGs see >10ms anycast inflation; world too benign for the experiments", frac*100)
	}
	if frac > 0.95 {
		t.Errorf("%.1f%% inflated; anycast should be good for most users (§3)", frac*100)
	}
}

func TestNewValidation(t *testing.T) {
	w := testWorld(t)
	if _, err := New(nil, w.Deploy, 1); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := New(w.Graph, nil, 1); err == nil {
		t.Error("nil deployment should fail")
	}
}

// anycastInflation is the per-UG inflation of the anycast landing, the
// diagnostic behind the paper's motivation (§1, §2.2: anycast can
// inflate paths): for every UG with an anycast route, how much farther
// (km) its landing PoP is than its nearest policy-compliant PoP, and
// its latency headroom (anycast latency minus the best compliant
// ingress's, floored at 0, for UGs that have a best ingress).
type anycastInflation struct {
	km, ms   []float64
	weightKm []float64 // UG weight per km entry
	totalW   float64
}

func measureInflation(t *testing.T, w *World, ugs *usergroup.Set) anycastInflation {
	t.Helper()
	res, err := w.ResolveIngress(w.Deploy.AllPeeringIDs())
	if err != nil {
		t.Fatal(err)
	}
	var inf anycastInflation
	for _, u := range ugs.UGs {
		r, ok := res.Route(u.ASN)
		if !ok {
			continue
		}
		pop, err := w.Deploy.PoPOfPeering(r.Ingress)
		if err != nil {
			t.Fatal(err)
		}
		landKm := geo.DistanceKm(u.Coord, pop.Coord)
		compliant, err := w.CompliantIngressIDs(u.ASN)
		if err != nil {
			t.Fatal(err)
		}
		nearest := landKm
		for _, ing := range compliant {
			p, err := w.Deploy.PoPOfPeering(ing)
			if err != nil {
				t.Fatal(err)
			}
			nearest = min(nearest, geo.DistanceKm(u.Coord, p.Coord))
		}
		inf.km = append(inf.km, landKm-nearest)
		inf.weightKm = append(inf.weightKm, u.Weight)
		inf.totalW += u.Weight
		anyMs, err := w.BaseLatencyMs(u.ASN, u.Metro, r.Ingress)
		if err != nil {
			t.Fatal(err)
		}
		if bestMs, _, err := w.BestIngressLatency(u.ASN, u.Metro); err == nil {
			inf.ms = append(inf.ms, max(0, anyMs-bestMs))
		}
	}
	return inf
}

// inflatedFrac is the traffic-weighted share landing more than
// thresholdKm beyond the nearest compliant PoP.
func (inf anycastInflation) inflatedFrac(thresholdKm float64) float64 {
	var w float64
	for i, km := range inf.km {
		if km > thresholdKm {
			w += inf.weightKm[i]
		}
	}
	return w / inf.totalW
}

func TestAnalyzeCatchment(t *testing.T) {
	w := testWorld(t)
	ugs, err := usergroup.Build(w.Graph, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	share, err := NewCatchmentAnalyzer(w, ugs, 0).Update()
	if err != nil {
		t.Fatal(err)
	}
	// PoP shares form a distribution.
	var sum float64
	for _, s := range share {
		if s < 0 {
			t.Error("negative share")
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("PoP shares sum to %v", sum)
	}
	inf := measureInflation(t, w, ugs)
	if len(inf.km) == 0 {
		t.Fatal("no UGs analyzed")
	}
	// Our AS-level substrate is more hostile than the real Internet
	// (per-AS destination routing cannot express per-customer hot-potato
	// egress, so whole ISPs land at single PoPs) — see DESIGN.md. The
	// diagnostic still must show anycast working for a sizable share and
	// inflation bounded by intra-continental distances.
	if f := inf.inflatedFrac(1000); f > 0.9 {
		t.Errorf("%.0f%% of traffic inflated >1000 km; world implausibly hostile", 100*f)
	}
	if q, err := stats.NewCDF(inf.km).Quantile(0.5); err != nil || q > 6000 {
		t.Errorf("median inflation %v km implausible (%v)", q, err)
	}
	// Latency headroom must be non-negative and positive somewhere.
	if mx, _ := stats.NewCDF(inf.ms).Quantile(1); mx <= 0 {
		t.Error("no UG has latency headroom; PAINTER would be pointless here")
	}
}
