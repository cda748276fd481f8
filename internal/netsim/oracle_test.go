package netsim

// Test hooks: introspection of the world's memos for the
// invalidation-precision tests.

import "painter/internal/topology"

// bestCached reports whether BestIngressLatency has a live memo entry
// for (asn, metro) — a test hook for the invalidation-precision tests.
func (w *World) bestCached(asn topology.ASN, metro string) bool {
	ai, aok := w.idx.ID(asn)
	mo, mok := w.metroOrd[metro]
	if !aok || !mok {
		return false
	}
	w.polMu.Lock()
	defer w.polMu.Unlock()
	row := w.bestRows[ai]
	return row != nil && row[mo].set
}
