package bgp

// Two oracles for Propagate, both test-only: referencePropagate iterates
// the BGP decision process to a fixpoint from first principles, and
// PropagateReference is the map-based original of the dense engine, the
// differential oracle the external bgp_test suites compare against.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"painter/internal/stats"
	"painter/internal/topology"
)

// referencePropagate is a brute-force implementation of policy routing:
// it iterates the BGP decision process to a fixpoint, re-evaluating
// every AS against its neighbors' current selections under valley-free
// export rules. It is O(iterations × E) and exists purely to validate
// Propagate against first principles on small graphs.
func referencePropagate(g *topology.Graph, injections []Injection, tb TieBreaker) map[topology.ASN]Route {
	if tb == nil {
		tb = minIngressTieBreaker
	}
	// Seed routes at injection neighbors.
	seed := make(map[topology.ASN][]Route)
	for _, inj := range injections {
		seed[inj.Neighbor] = append(seed[inj.Neighbor], Route{
			Ingress: inj.Ingress, PathLen: 1 + inj.Prepend, Class: inj.Class, Via: inj.Neighbor,
		})
	}
	selected := make(map[topology.ASN]Route)

	// exportsTo reports whether an AS that selected route r re-exports it
	// to a neighbor with relationship rel (from the AS's view).
	exportsTo := func(r Route, rel topology.Relationship) bool {
		if r.Class == ClassCustomer {
			return true // customer routes go to everyone
		}
		// peer/provider routes go to customers only
		return rel == topology.RelCustomer
	}

	for iter := 0; iter < 4*g.Len()+8; iter++ {
		changed := false
		for _, as := range g.ASNs() {
			// Gather candidates: direct injections plus neighbor exports.
			var cands []Route
			cands = append(cands, seed[as]...)
			a := g.AS(as)
			for _, nb := range slices.Concat(a.Providers, a.Customers, a.Peers) {
				nr, ok := selected[nb]
				if !ok {
					continue
				}
				relNbToUs := g.Rel(nb, as)
				if !exportsTo(nr, relNbToUs) {
					continue
				}
				// Class at the receiver is our relationship to nb.
				var class RouteClass
				switch g.Rel(as, nb) {
				case topology.RelCustomer:
					class = ClassCustomer
				case topology.RelPeer:
					class = ClassPeer
				case topology.RelProvider:
					class = ClassProvider
				default:
					continue
				}
				cands = append(cands, Route{
					Ingress: nr.Ingress, PathLen: nr.PathLen + 1, Class: class, Via: nb,
				})
			}
			if len(cands) == 0 {
				continue
			}
			// Decision process: class, then length, then tie-break over
			// the co-best set (sorted deterministically like Propagate).
			best := cands[0]
			for _, c := range cands[1:] {
				if c.Better(best) {
					best = c
				}
			}
			var tied []Route
			for _, c := range cands {
				if c.Class == best.Class && c.PathLen == best.PathLen {
					tied = append(tied, c)
				}
			}
			sortRoutes(tied)
			chosen := tied[tb(as, tied)]
			if cur, ok := selected[as]; !ok || cur != chosen {
				selected[as] = chosen
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return selected
}

func sortRoutes(rs []Route) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0; j-- {
			a, b := rs[j-1], rs[j]
			if b.Ingress < a.Ingress || (b.Ingress == a.Ingress && b.Via < a.Via) {
				rs[j-1], rs[j] = b, a
			} else {
				break
			}
		}
	}
}

// TestPropagateMatchesReference cross-validates Propagate against the
// fixpoint reference on many random topologies and injection sets.
func TestPropagateMatchesReference(t *testing.T) {
	rng := stats.NewRand(99)
	for trial := 0; trial < 30; trial++ {
		g, err := topology.Generate(topology.GenConfig{
			Seed:              int64(1000 + trial),
			Tier1:             2 + rng.Intn(3),
			Tier2:             4 + rng.Intn(10),
			Stubs:             10 + rng.Intn(40),
			MeanStubProviders: 1.5 + rng.Float64(),
			Tier2PeerProb:     rng.Float64() * 0.6,
			EnterpriseFrac:    0.3,
			ContentFrac:       0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Random injections at transit ASes.
		var transit []topology.ASN
		for _, n := range g.ASNs() {
			if g.AS(n).Kind == topology.KindTransit {
				transit = append(transit, n)
			}
		}
		nInj := 1 + rng.Intn(5)
		var inj []Injection
		for i := 0; i < nInj; i++ {
			class := ClassPeer
			if rng.Intn(2) == 0 {
				class = ClassCustomer
			}
			inj = append(inj, Injection{
				Neighbor: transit[rng.Intn(len(transit))],
				Class:    class,
				Ingress:  IngressID(i),
				Prepend:  rng.Intn(3),
			})
		}
		got, err := PropagateResult(g, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := referencePropagate(g, inj, nil)

		if got.Len() != len(want) {
			t.Fatalf("trial %d: coverage differs: propagate=%d reference=%d (inj=%+v)",
				trial, got.Len(), len(want), inj)
		}
		for as, wr := range want {
			gr, ok := got.Route(as)
			if !ok {
				t.Fatalf("trial %d: AS %v missing from Propagate", trial, as)
			}
			// Class and path length must agree exactly; the selected
			// ingress must agree because both use the same tie-breaker
			// over the same sorted co-best set.
			if gr.Class != wr.Class || gr.PathLen != wr.PathLen || gr.Ingress != wr.Ingress {
				t.Fatalf("trial %d: AS %v differs: propagate=%+v reference=%+v (inj=%+v)",
					trial, as, gr, wr, inj)
			}
		}
	}
}

// PropagateReference is the original map-based implementation of
// Propagate, retained verbatim as the differential-testing oracle for
// the dense engine. It runs the classic three-phase BFS (up the
// customer hierarchy, across one peer hop, down to customers) using
// per-level maps and per-level key sorts — a different algorithm from
// the engine's settle loop; Propagate must select exactly the same
// route for every AS under any tie-breaker.
func PropagateReference(g *topology.Graph, injections []Injection, tb TieBreaker) (map[topology.ASN]Route, error) {
	if tb == nil {
		tb = minIngressTieBreaker
	}
	for _, inj := range injections {
		if !g.Has(inj.Neighbor) {
			return nil, fmt.Errorf("bgp: injection neighbor %v not in topology", inj.Neighbor)
		}
		if inj.Ingress < 0 {
			return nil, fmt.Errorf("bgp: invalid ingress id %d", inj.Ingress)
		}
		if inj.Prepend < 0 || inj.Prepend > 16 {
			return nil, fmt.Errorf("bgp: prepend %d out of range [0,16]", inj.Prepend)
		}
	}

	selected := make(map[topology.ASN]Route)

	settle := func(as topology.ASN, cands []Route) Route {
		// Deterministic candidate order so tie-breakers see a stable view.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].Ingress != cands[j].Ingress {
				return cands[i].Ingress < cands[j].Ingress
			}
			return cands[i].Via < cands[j].Via
		})
		r := cands[tb(as, cands)]
		selected[as] = r
		return r
	}

	// --- Phase 1: customer routes propagate up provider chains.
	// Level-synchronous BFS keyed by path length (prepending makes
	// starting lengths differ across injections).
	levels := make(map[int]map[topology.ASN][]Route)
	addLevel := func(l int, as topology.ASN, r Route) {
		m := levels[l]
		if m == nil {
			m = make(map[topology.ASN][]Route)
			levels[l] = m
		}
		m[as] = append(m[as], r)
	}
	maxLevel := 0
	for _, inj := range injections {
		if inj.Class != ClassCustomer {
			continue
		}
		l := 1 + inj.Prepend
		addLevel(l, inj.Neighbor, Route{
			Ingress: inj.Ingress, PathLen: l, Class: ClassCustomer, Via: inj.Neighbor,
		})
		if l > maxLevel {
			maxLevel = l
		}
	}
	for l := 1; l <= maxLevel; l++ {
		m := levels[l]
		if m == nil {
			continue
		}
		// Settle this level in deterministic ASN order.
		for _, as := range sortedKeys(m) {
			if _, done := selected[as]; done {
				continue
			}
			r := settle(as, m[as])
			// Export customer route to providers (stay in phase 1).
			for _, p := range g.AS(as).Providers {
				if _, done := selected[p]; !done {
					addLevel(r.PathLen+1, p, Route{
						Ingress: r.Ingress, PathLen: r.PathLen + 1, Class: ClassCustomer, Via: as,
					})
					if r.PathLen+1 > maxLevel {
						maxLevel = r.PathLen + 1
					}
				}
			}
		}
		delete(levels, l)
	}

	// --- Phase 2: one hop across peer links.
	// Sources: all ASes settled with a customer route, plus direct peer
	// injections.
	peerCands := make(map[topology.ASN][]Route)
	for _, inj := range injections {
		if inj.Class != ClassPeer {
			continue
		}
		if _, done := selected[inj.Neighbor]; done {
			continue
		}
		peerCands[inj.Neighbor] = append(peerCands[inj.Neighbor], Route{
			Ingress: inj.Ingress, PathLen: 1 + inj.Prepend, Class: ClassPeer, Via: inj.Neighbor,
		})
	}
	for _, as := range sortedKeys(selected) {
		r := selected[as]
		if r.Class != ClassCustomer {
			continue
		}
		for _, p := range g.AS(as).Peers {
			if _, done := selected[p]; !done {
				peerCands[p] = append(peerCands[p], Route{
					Ingress: r.Ingress, PathLen: r.PathLen + 1, Class: ClassPeer, Via: as,
				})
			}
		}
	}
	// Settle peer routes by shortest path length.
	settleByLen(peerCands, selected, settle)

	// --- Phase 3: routes propagate down provider→customer edges.
	// Dijkstra-like by path length; sources are all settled ASes plus
	// provider-class injections.
	down := make(map[topology.ASN][]Route)
	for _, inj := range injections {
		if inj.Class != ClassProvider {
			continue
		}
		if _, done := selected[inj.Neighbor]; done {
			continue
		}
		down[inj.Neighbor] = append(down[inj.Neighbor], Route{
			Ingress: inj.Ingress, PathLen: 1 + inj.Prepend, Class: ClassProvider, Via: inj.Neighbor,
		})
	}
	// Frontier: settled ASes exporting to their customers.
	frontier := sortedKeys(selected)
	for _, as := range frontier {
		r := selected[as]
		for _, c := range g.AS(as).Customers {
			if _, done := selected[c]; !done {
				down[c] = append(down[c], Route{
					Ingress: r.Ingress, PathLen: r.PathLen + 1, Class: ClassProvider, Via: as,
				})
			}
		}
	}
	// Iteratively settle the shortest unsettled candidates and export
	// further down.
	for len(down) > 0 {
		// Find minimum pending path length.
		minLen := -1
		for _, cands := range down {
			for _, c := range cands {
				if minLen == -1 || c.PathLen < minLen {
					minLen = c.PathLen
				}
			}
		}
		next := make(map[topology.ASN][]Route)
		for _, as := range sortedKeys(down) {
			cands := down[as]
			if _, done := selected[as]; done {
				continue
			}
			var atMin []Route
			var later []Route
			for _, c := range cands {
				if c.PathLen == minLen {
					atMin = append(atMin, c)
				} else {
					later = append(later, c)
				}
			}
			if len(atMin) == 0 {
				// Merge with any exports already appended by ASes settled
				// earlier in this round; assigning would drop them based
				// on ASN processing order, losing equal-length candidates.
				next[as] = append(next[as], later...)
				continue
			}
			r := settle(as, atMin)
			for _, cu := range g.AS(as).Customers {
				if _, done := selected[cu]; !done {
					next[cu] = append(next[cu], Route{
						Ingress: r.Ingress, PathLen: r.PathLen + 1, Class: ClassProvider, Via: as,
					})
				}
			}
		}
		down = next
	}

	return selected, nil
}

// settleByLen settles candidates class-tied routes by increasing path
// length (peer phase helper). No further export happens here.
func settleByLen(cands map[topology.ASN][]Route, selected map[topology.ASN]Route, settle func(topology.ASN, []Route) Route) {
	for _, as := range sortedKeys(cands) {
		if _, done := selected[as]; done {
			continue
		}
		cs := cands[as]
		minLen := cs[0].PathLen
		for _, c := range cs[1:] {
			if c.PathLen < minLen {
				minLen = c.PathLen
			}
		}
		var atMin []Route
		for _, c := range cs {
			if c.PathLen == minLen {
				atMin = append(atMin, c)
			}
		}
		settle(as, atMin)
	}
}

func sortedKeys[V any](m map[topology.ASN]V) []topology.ASN {
	out := make([]topology.ASN, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Better reports whether r is strictly preferred over o by the standard
// decision process prior to tie-breaking: lower class first (customer <
// peer < provider), then shorter AS path.
func (r Route) Better(o Route) bool {
	if r.Class != o.Class {
		return r.Class < o.Class
	}
	return r.PathLen < o.PathLen
}
