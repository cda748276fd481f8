package usergroup

import (
	"math"
	"testing"

	"painter/internal/topology"
)

func testSet(t *testing.T) (*Set, *topology.Graph) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 15, Tier1: 4, Tier2: 20, Stubs: 200,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3, EnterpriseFrac: 0.4, ContentFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

func TestBuildCoversAllStubPresences(t *testing.T) {
	s, g := testSet(t)
	want := 0
	for _, n := range g.ASNs() {
		a := g.AS(n)
		if a.Tier == topology.TierStub {
			want += len(a.Metros)
		}
	}
	if s.Len() != want {
		t.Errorf("UGs = %d, want %d (one per stub-AS metro presence)", s.Len(), want)
	}
}

func TestWeightsNormalized(t *testing.T) {
	s, _ := testSet(t)
	if tw := s.TotalWeight(); math.Abs(tw-1) > 1e-9 {
		t.Errorf("total weight = %v, want 1", tw)
	}
	for _, u := range s.UGs {
		if u.Weight <= 0 {
			t.Errorf("UG %d has non-positive weight", u.ID)
		}
	}
}

func TestWeightsSkewed(t *testing.T) {
	s, _ := testSet(t)
	top := s.TopByWeight(s.Len() / 10)
	var topSum float64
	for _, u := range top {
		topSum += u.Weight
	}
	// Zipf(1.1): top 10% of UGs should carry a large share of traffic.
	if topSum < 0.3 {
		t.Errorf("top 10%% of UGs carry %.2f of traffic, want >0.3 (Zipf skew)", topSum)
	}
}

func TestResolverAssignment(t *testing.T) {
	s, _ := testSet(t)
	byID := map[ResolverID]Resolver{}
	for _, r := range s.Resolvers {
		byID[r.ID] = r
	}
	public := 0
	for _, u := range s.UGs {
		r, ok := byID[u.Resolver]
		if !ok {
			t.Fatalf("UG %d references unknown resolver %d", u.ID, u.Resolver)
		}
		if r.Public {
			public++
		}
	}
	frac := float64(public) / float64(s.Len())
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("public resolver fraction = %.2f, want ~0.25", frac)
	}
}

func TestSubsetRenormalizes(t *testing.T) {
	s, _ := testSet(t)
	half := s.Subset(func(u UG) bool { return u.ID%2 == 0 })
	if half.Len() == 0 || half.Len() >= s.Len() {
		t.Fatalf("subset size %d of %d", half.Len(), s.Len())
	}
	if tw := half.TotalWeight(); math.Abs(tw-1) > 1e-9 {
		t.Errorf("subset total weight = %v, want 1", tw)
	}
	// Empty subset keeps zero weight without dividing by zero.
	empty := s.Subset(func(UG) bool { return false })
	if empty.Len() != 0 || empty.TotalWeight() != 0 {
		t.Error("empty subset wrong")
	}
}

func TestTopByWeightOrdered(t *testing.T) {
	s, _ := testSet(t)
	top := s.TopByWeight(20)
	if len(top) != 20 {
		t.Fatalf("TopByWeight(20) = %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Weight > top[i-1].Weight {
			t.Error("TopByWeight not descending")
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	_, g := testSet(t)
	a, err := Build(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("sizes differ")
	}
	for i := range a.UGs {
		if a.UGs[i] != b.UGs[i] {
			t.Fatalf("UG %d differs across builds", i)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	empty := topology.NewGraph()
	if _, err := Build(empty, DefaultConfig()); err == nil {
		t.Error("empty topology should fail")
	}
}

func TestTargetUGsPadsPopulation(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{Seed: 15, Tier1: 4, Tier2: 20, Stubs: 200,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3, EnterpriseFrac: 0.4, ContentFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	natural, err := Build(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.TargetUGs = natural.Len() + 500
	s, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != cfg.TargetUGs {
		t.Fatalf("padded set has %d UGs, want %d", s.Len(), cfg.TargetUGs)
	}
	// No duplicate (AS, metro) pairs; every UG is a stub AS in a real
	// metro; weights still normalized; IDs dense.
	seen := map[[2]string]bool{}
	var total float64
	for _, u := range s.UGs {
		key := [2]string{u.ASN.String(), u.Metro}
		if seen[key] {
			t.Fatalf("duplicate UG pair %v", key)
		}
		seen[key] = true
		if g.AS(u.ASN) == nil || g.AS(u.ASN).Tier != topology.TierStub {
			t.Fatalf("UG %d references non-stub AS %v", u.ID, u.ASN)
		}
		total += u.Weight
		if got := s.Get(u.ID); got == nil || got.ID != u.ID {
			t.Fatalf("Get(%d) broken on padded set", u.ID)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("padded weights sum to %v, want 1", total)
	}
}

func TestTargetUGsZeroIsByteIdentical(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{Seed: 15, Tier1: 4, Tier2: 20, Stubs: 200,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3, EnterpriseFrac: 0.4, ContentFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TargetUGs = 0
	b, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.UGs) != len(b.UGs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.UGs), len(b.UGs))
	}
	for i := range a.UGs {
		if a.UGs[i] != b.UGs[i] {
			t.Fatalf("UG %d differs with TargetUGs=0: %+v vs %+v", i, a.UGs[i], b.UGs[i])
		}
	}
}

func TestTargetUGsBelowNaturalIsNoop(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{Seed: 15, Tier1: 4, Tier2: 20, Stubs: 200,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3, EnterpriseFrac: 0.4, ContentFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	natural, err := Build(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TargetUGs = natural.Len() / 2
	s, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != natural.Len() {
		t.Fatalf("TargetUGs below natural count changed population: %d vs %d", s.Len(), natural.Len())
	}
}
