package netsim

// Event→impact query surface for incremental consumers (the core
// re-solve controller). It lives next to the cache-invalidation rules in
// events.go on purpose: both answer the same question — "what can this
// event change?" — but for different audiences. ApplyEvent's
// invalidation is about cached world answers; EventImpact is about the
// orchestrator's advertisement model, which only needs to know which
// ingresses are touched and whether route selection or latency can
// move.

import (
	"fmt"

	"painter/internal/bgp"
	"painter/internal/topology"
)

// Impact classifies what one event can change in the world, from the
// point of view of a consumer maintaining state derived from queries
// (route selections, latencies, advertisement placements).
type Impact struct {
	// Ingresses are the peerings the event touches: the failed/recovered
	// peering, every peering at an outaged PoP, the spiked or lossy
	// ingress, or the ingress of a flipped preference.
	Ingresses []bgp.IngressID
	// Routing reports that route selection can change: peering/PoP
	// down/up alter which peerings inject routes; a pref flip re-rolls
	// one AS's tie-breaking.
	Routing bool
	// Latency reports that observed latencies can change — directly
	// (spike) or via re-selection (down/up, flip).
	Latency bool
	// TrafficOnly reports that only Traffic Manager substrate metadata
	// changed (probe loss): route selection and modeled latencies are
	// untouched.
	TrafficOnly bool
}

// EventImpact classifies an event against this world. It validates the
// event's references the same way ApplyEvent does, so it can be called
// either before applying (what would this change?) or from a Subscribe
// hook after applying (what did this change?).
func (w *World) EventImpact(ev Event) (Impact, error) {
	switch ev.Kind {
	case EventPeeringDown, EventPeeringUp:
		if w.Deploy.Peering(ev.Ingress) == nil {
			return Impact{}, fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		return Impact{Ingresses: []bgp.IngressID{ev.Ingress}, Routing: true, Latency: true}, nil
	case EventPoPDown, EventPoPUp:
		if w.Deploy.PoP(ev.PoP) == nil {
			return Impact{}, fmt.Errorf("netsim: unknown PoP %d", ev.PoP)
		}
		ids := w.Deploy.PeeringsAt(ev.PoP)
		return Impact{
			Ingresses: append([]bgp.IngressID(nil), ids...),
			Routing:   true, Latency: true,
		}, nil
	case EventLatencySpike:
		if w.Deploy.Peering(ev.Ingress) == nil {
			return Impact{}, fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		return Impact{Ingresses: []bgp.IngressID{ev.Ingress}, Latency: true}, nil
	case EventProbeLoss:
		if w.Deploy.Peering(ev.Ingress) == nil {
			return Impact{}, fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		return Impact{Ingresses: []bgp.IngressID{ev.Ingress}, TrafficOnly: true}, nil
	case EventPrefFlip:
		if w.Deploy.Peering(ev.Ingress) == nil {
			return Impact{}, fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		if !w.Graph.Has(ev.AS) {
			return Impact{}, fmt.Errorf("netsim: unknown AS %v", ev.AS)
		}
		return Impact{Ingresses: []bgp.IngressID{ev.Ingress}, Routing: true, Latency: true}, nil
	default:
		return Impact{}, fmt.Errorf("netsim: unknown event kind %v", ev.Kind)
	}
}

// AnycastShift resolves the full anycast catchment (all deployment
// peerings) and reports which ASes changed selection relative to prev —
// the incremental entry point for consumers that retain the previous
// anycast Result (the re-solve controller). A nil or
// foreign-graph prev yields every settled AS as changed; when the
// resolve is a cache hit on prev itself the changed set is empty. The
// returned Result is shared with the resolve cache: read-only.
func (w *World) AnycastShift(prev *bgp.Result) (*bgp.Result, []topology.ASN, error) {
	res, err := w.ResolveIngress(w.Deploy.AllPeeringIDs())
	if err != nil {
		return nil, nil, err
	}
	return res, res.Diff(prev), nil
}
