package bgp

// Span-tracing entry point for the propagation engine. Unlike the
// metric handles (package-level atomic, see obs.go), trace parentage
// must flow through the call: a propagation is only meaningful as a
// child of whichever resolve or solve step caused it. Callers without
// a span pass nil and pay one branch.

import (
	"strconv"

	"painter/internal/obs/span"
	"painter/internal/topology"
)

// PropagateResultTraced is PropagateResult wrapped in a child span of
// parent recording injection count, settled-AS count, and any error. A
// nil parent (tracing off, or an unsampled trace) delegates directly.
func PropagateResultTraced(g *topology.Graph, injections []Injection, tb TieBreaker, parent *span.Span) (*Result, error) {
	if parent == nil {
		return PropagateResult(g, injections, tb)
	}
	s := parent.StartChild("bgp.propagate",
		span.A("injections", strconv.Itoa(len(injections))))
	res, err := PropagateResult(g, injections, tb)
	if err != nil {
		s.SetAttr("error", err.Error())
	} else {
		s.SetAttr("settled", strconv.Itoa(res.Len()))
	}
	s.Finish()
	return res, err
}

// PropagateDeltaTraced is PropagateDelta wrapped in a child span
// recording the frontier inputs (injections, flipped ASes) and how many
// ASes actually changed — the catchment of the event.
func PropagateDeltaTraced(prev *Result, g *topology.Graph, injections []Injection, flipped []topology.ASN, tb TieBreaker, parent *span.Span) (*Result, []topology.ASN, error) {
	if parent == nil {
		return PropagateDelta(prev, g, injections, flipped, tb)
	}
	s := parent.StartChild("bgp.propagate_delta",
		span.A("injections", strconv.Itoa(len(injections))),
		span.A("flipped", strconv.Itoa(len(flipped))))
	res, changed, err := PropagateDelta(prev, g, injections, flipped, tb)
	if err != nil {
		s.SetAttr("error", err.Error())
	} else {
		s.SetAttr("changed", strconv.Itoa(len(changed)))
	}
	s.Finish()
	return res, changed, err
}
