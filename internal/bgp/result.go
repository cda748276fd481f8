package bgp

// Result is the retained output of one whole-graph propagation: the
// dense selection and settled arrays plus the injection list that
// produced them. Retaining it is what makes incremental repair possible
// — PropagateDelta reuses the settled remainder and restarts the bucket
// queue only from the frontier an input change invalidates.
//
// A Result is immutable after construction and safe for concurrent use;
// the lazily built sortedInjections view is memoized under sync.Once.

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"

	"painter/internal/topology"
)

// Result holds the selected route of every AS for one prefix, indexed
// by the graph's dense index. Produced by PropagateResult and
// PropagateDelta; treat as read-only.
type Result struct {
	idx          *topology.Index
	sel          []Route // indexed by dense AS id; valid iff settled
	settled      []bool
	settledCount int
	// inj is a private clone of the injections that produced this
	// result, in caller order: PropagateDelta's no-op fast path is an
	// order-sensitive equality check against it.
	inj []Injection

	sortOnce  sync.Once
	injSorted []Injection // inj sorted canonically, for multiset diffs
}

// Len returns the number of ASes that settled with a route.
func (r *Result) Len() int { return r.settledCount }

// Route returns the route the given AS selected, if any.
func (r *Result) Route(as topology.ASN) (Route, bool) {
	i, ok := r.idx.ID(as)
	if !ok || !r.settled[i] {
		return Route{}, false
	}
	return r.sel[i], true
}

// Bytes returns a canonical byte encoding of the selection: the settled
// count, then for every settled AS in ascending ASN order its ASN,
// ingress, path length, class, and via. Two Results encode identically
// iff every AS selects the identical route — the determinism tests pin
// byte equality across engines, worker counts, and process runs.
func (r *Result) Bytes() []byte {
	buf := make([]byte, 0, 4+17*r.settledCount)
	var w [17]byte
	binary.BigEndian.PutUint32(w[:4], uint32(r.settledCount))
	buf = append(buf, w[:4]...)
	for i, n := int32(0), int32(r.idx.Len()); i < n; i++ {
		if !r.settled[i] {
			continue
		}
		rt := r.sel[i]
		binary.BigEndian.PutUint32(w[0:4], uint32(r.idx.ASN(i)))
		binary.BigEndian.PutUint32(w[4:8], uint32(rt.Ingress))
		binary.BigEndian.PutUint32(w[8:12], uint32(rt.PathLen))
		w[12] = byte(rt.Class)
		binary.BigEndian.PutUint32(w[13:17], uint32(rt.Via))
		buf = append(buf, w[:17]...)
	}
	return buf
}

// Diff returns the ASes whose selection differs between r and prev
// (route changed, gained, or lost), in ascending ASN order. prev must
// come from the same graph; a nil or foreign-graph prev returns every
// settled AS of r.
func (r *Result) Diff(prev *Result) []topology.ASN {
	var out []topology.ASN
	n := int32(r.idx.Len())
	if prev == nil || prev.idx != r.idx {
		for i := int32(0); i < n; i++ {
			if r.settled[i] {
				out = append(out, r.idx.ASN(i))
			}
		}
		return out
	}
	for i := int32(0); i < n; i++ {
		if r.settled[i] != prev.settled[i] || (r.settled[i] && r.sel[i] != prev.sel[i]) {
			out = append(out, r.idx.ASN(i))
		}
	}
	return out
}

// sortedInjections returns r's injections in canonical order, built
// once; PropagateDelta merge-walks it against the new injections to
// find the per-neighbor differences that seed the frontier.
func (r *Result) sortedInjections() []Injection {
	r.sortOnce.Do(func() {
		r.injSorted = slices.Clone(r.inj)
		slices.SortFunc(r.injSorted, compareInjections)
	})
	return r.injSorted
}

// compareInjections orders injections by (Neighbor, Class, Ingress,
// Prepend) — any total order works for the multiset diff; this one
// groups per-neighbor differences contiguously.
func compareInjections(a, b Injection) int {
	return cmp.Or(cmp.Compare(a.Neighbor, b.Neighbor), cmp.Compare(a.Class, b.Class),
		cmp.Compare(a.Ingress, b.Ingress), cmp.Compare(a.Prepend, b.Prepend))
}
