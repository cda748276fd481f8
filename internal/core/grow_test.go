package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/usergroup"
)

// probeBranches counts which way probe went over the terms checked.
type probeBranches struct{ fast, nearer, dominates int }

// checkProbesAfterAccepts grows on o's scratch by accepting order one
// peering at a time. After every accept it checks that each touched
// state's running sum and count are eval's without a probe, and that
// probe equals eval(…, true) bit for bit for every (state, candidate)
// pair of a candidate not yet in the prefix, whether or not its live bit
// is set.
func checkProbesAfterAccepts(t *testing.T, name string, o *Orchestrator, cands, order []bgp.IngressID, base []float64) probeBranches {
	t.Helper()
	gs := o.warm.takeScratch()
	if gs == nil {
		gs = o.newGrowScratch()
	}
	gs.begin(o.singletonRows(), base, nil, len(cands))
	gs.sweep(cands)
	var br probeBranches
	for a, acc := range order {
		gs.accept(acc)
		for _, i := range gs.touched {
			if sum, n := gs.eval(i, incMember{}, nil, false); math.Float64bits(sum) != math.Float64bits(gs.sum[i]) || n != gs.cnt[i] {
				t.Fatalf("%s accept %d (%d): state %d running sum %v/%d, eval %v/%d", name, a, acc, i, gs.sum[i], gs.cnt[i], sum, n)
			}
		}
		for _, x := range cands {
			if gs.inS[x] {
				continue
			}
			means, ranks := gs.rows(x)
			for k, i := range o.statesFor(x) {
				st := o.states[i]
				m := incMember{dist: st.popDist[x], est: means[k], rank: ranks[k]}
				row := st.factRow(int(m.rank))
				switch {
				case m.dist < gs.minDist[i]:
					br.nearer++
				case row != nil && gs.mask[i] != nil && intersects(row, gs.ranks[i]):
					br.dominates++
				default:
					br.fast++
				}
				gotSum, gotN := gs.probe(i, m, row)
				wantSum, wantN := gs.eval(i, m, row, true)
				if math.Float64bits(gotSum) != math.Float64bits(wantSum) || gotN != wantN {
					t.Fatalf("%s accept %d (%d): state %d probe %d = %v/%d, eval %v/%d (dist %v, minDist %v, est %v)",
						name, a, acc, i, x, gotSum, gotN, wantSum, wantN, m.dist, gs.minDist[i], m.est)
				}
			}
		}
	}
	gs.reset()
	o.warm.putScratch(gs)
	return br
}

// TestGrowProbeMatchesEval pins the grow loop's running sums: probe's
// O(1) path and its fallback to eval give eval's sum and count bit for
// bit, after every accept of a learned grow. Two models run: the
// small-scale bench after two learning rounds, replaying the accepts of
// its first grow and then every other candidate; and a hand-built one
// with NaN estimates, NaN and +Inf distances, and learned rows that
// dominate members. Each run must take all three branches: the running
// sum, a probe nearer than minDist, and a probe whose row holds a
// member's rank.
func TestGrowProbeMatchesEval(t *testing.T) {
	t.Run("bench", func(t *testing.T) {
		p := DefaultParams(4)
		p.MaxIterations, p.MinIterBenefitGain = 2, -1
		b := newBench(t, 41)
		o, err := New(b.in, b.exec, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.Solve(); err != nil {
			t.Fatal(err)
		}
		cands, base := o.in.Deploy.AllPeeringIDs(), anycastBase(o)
		order := o.growUncached(cands, base, nil)
		for _, x := range cands {
			if !slices.Contains(order, x) {
				order = append(order, x)
			}
		}
		br := checkProbesAfterAccepts(t, "bench", o, cands, order, base)
		if br.fast == 0 || br.nearer == 0 || br.dominates == 0 {
			t.Fatalf("branches taken %+v; want each of them", br)
		}
		t.Logf("branches %+v", br)
	})
	t.Run("edges", func(t *testing.T) {
		o := edgeModel(t)
		cands := o.in.Deploy.AllPeeringIDs()
		rev := slices.Clone(cands)
		slices.Reverse(rev)
		for _, order := range [][]bgp.IngressID{cands, rev} {
			br := checkProbesAfterAccepts(t, fmt.Sprintf("edges %v", order), o, cands, order, anycastBase(o))
			if br.fast == 0 || br.nearer == 0 || br.dominates == 0 {
				t.Fatalf("order %v: branches taken %+v; want each of them", order, br)
			}
		}
	})
}

// edgeModel is six peerings at one PoP and states whose estimates and
// distances include NaN and +Inf, after one Learn: states 0–2 saw a
// winner dominate the rest of the set, state 3 routed through a peering
// its compliance model lacked.
func edgeModel(t *testing.T) *Orchestrator {
	t.Helper()
	nan, inf := math.NaN(), math.Inf(1)
	cands := ids(1, 2, 3, 4, 5, 6)
	var peerings []cloud.Peering
	for _, id := range cands {
		peerings = append(peerings, cloud.Peering{ID: id, PoP: 1, PeerASN: 100, ClassAtPeer: bgp.ClassPeer})
	}
	d, err := cloud.New(64500, []cloud.PoP{{ID: 1, Metro: geo.Metros()[0].Code}}, peerings)
	if err != nil {
		t.Fatal(err)
	}
	type ests = map[bgp.IngressID]float64
	states := []struct{ est, dist ests }{
		{ests{1: 10, 2: 20, 3: nan, 4: 40, 5: 15, 6: 30}, ests{1: 0, 2: 1000, 3: 500, 4: nan, 5: inf, 6: 5000}},
		{ests{1: nan, 2: 12, 3: 18, 5: 25, 6: 9}, ests{1: 4000, 2: 0, 3: inf, 5: 2000, 6: 7000}},
		{ests{2: 30, 3: 30, 4: 30, 6: nan}, ests{2: inf, 3: 0, 4: 2900, 6: 100}},
		{ests{1: 50, 3: 45, 5: 55}, ests{1: nan, 3: 100, 5: 100, 6: 200}},
		{ests{1: 5, 2: nan, 4: 8, 6: 7}, ests{1: inf, 2: inf, 4: 6500, 6: 0}},
		{ests{4: 60, 5: nan, 6: 65}, ests{4: 3000, 5: 0, 6: nan}},
	}
	o := &Orchestrator{in: Inputs{Deploy: d}, params: Params{PrefixBudget: 1, ReuseKm: 3000, Workers: 1},
		byIngress: make([][]int32, 7), stateIdx: map[usergroup.ID]int32{}}
	for i, s := range states {
		st := flatState(usergroup.UG{ID: usergroup.ID(i), Weight: 1}, 100, s.est, s.dist)
		for _, ing := range st.compliant {
			o.byIngress[ing] = append(o.byIngress[ing], int32(i))
		}
		o.states = append(o.states, st)
		o.stateIdx[st.ug.ID] = int32(i)
	}
	cfg := Config{Prefixes: [][]bgp.IngressID{ids(1, 2, 3, 5, 6), ids(2, 3, 4, 6), ids(1, 3, 5, 6)}}
	o.Learn(cfg, []Observation{
		{UG: 0, Prefix: 0, Ingress: 2, LatencyMs: 21},
		{UG: 1, Prefix: 1, Ingress: 6, LatencyMs: 8},
		{UG: 2, Prefix: 1, Ingress: 4, LatencyMs: nan},
		{UG: 3, Prefix: 2, Ingress: 6, LatencyMs: 52},
		{UG: 0, Prefix: 2, Ingress: 5, LatencyMs: 14},
	})
	return o
}
