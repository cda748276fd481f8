package netsim

// Tests for the EventImpact query surface: every event kind maps to the
// expected touched-ingress set and classification, and invalid
// references error exactly as ApplyEvent would.

import (
	"testing"

	"painter/internal/bgp"
)

func TestEventImpactPerKind(t *testing.T) {
	w := testWorld(t)
	ing := w.Deploy.AllPeeringIDs()[0]
	pop := w.Deploy.PoPs[0].ID
	popIngs := w.Deploy.PeeringsAt(pop)
	as := w.Graph.ASNs()[0]

	cases := []struct {
		name        string
		ev          Event
		wantIngs    []bgp.IngressID
		routing     bool
		latency     bool
		trafficOnly bool
	}{
		{"peering-down", Event{Kind: EventPeeringDown, Ingress: ing},
			[]bgp.IngressID{ing}, true, true, false},
		{"peering-up", Event{Kind: EventPeeringUp, Ingress: ing},
			[]bgp.IngressID{ing}, true, true, false},
		{"pop-down", Event{Kind: EventPoPDown, PoP: pop},
			popIngs, true, true, false},
		{"pop-up", Event{Kind: EventPoPUp, PoP: pop},
			popIngs, true, true, false},
		{"latency-spike", Event{Kind: EventLatencySpike, Ingress: ing, Ms: 40},
			[]bgp.IngressID{ing}, false, true, false},
		{"probe-loss", Event{Kind: EventProbeLoss, Ingress: ing, Pct: 20},
			[]bgp.IngressID{ing}, false, false, true},
		{"pref-flip", Event{Kind: EventPrefFlip, AS: as, Ingress: ing},
			[]bgp.IngressID{ing}, true, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			imp, err := w.EventImpact(tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			if len(imp.Ingresses) != len(tc.wantIngs) {
				t.Fatalf("ingresses = %v, want %v", imp.Ingresses, tc.wantIngs)
			}
			for i, id := range tc.wantIngs {
				if imp.Ingresses[i] != id {
					t.Fatalf("ingresses = %v, want %v", imp.Ingresses, tc.wantIngs)
				}
			}
			if imp.Routing != tc.routing || imp.Latency != tc.latency || imp.TrafficOnly != tc.trafficOnly {
				t.Errorf("classification routing=%v latency=%v trafficOnly=%v, want %v/%v/%v",
					imp.Routing, imp.Latency, imp.TrafficOnly, tc.routing, tc.latency, tc.trafficOnly)
			}
		})
	}
}

func TestEventImpactValidatesLikeApplyEvent(t *testing.T) {
	w := testWorld(t)
	bad := []Event{
		{Kind: EventPeeringDown, Ingress: 1 << 20},
		{Kind: EventPoPDown, PoP: 1 << 20},
		{Kind: EventLatencySpike, Ingress: 1 << 20},
		{Kind: EventProbeLoss, Ingress: 1 << 20},
		{Kind: EventPrefFlip, AS: 1 << 20, Ingress: w.Deploy.AllPeeringIDs()[0]},
		{Kind: EventKind(99)},
	}
	for _, ev := range bad {
		if _, err := w.EventImpact(ev); err == nil {
			t.Errorf("EventImpact(%v) accepted an invalid event", ev)
		}
		if err := w.ApplyEvent(ev); err == nil {
			t.Errorf("ApplyEvent(%v) accepted an invalid event (impact/apply must agree)", ev)
		}
	}
}

// TestEventImpactPoPShared asserts PoP impacts do not alias deployment
// state: mutating the returned slice must not corrupt PeeringsAt.
func TestEventImpactPoPSliceIsFresh(t *testing.T) {
	w := testWorld(t)
	pop := w.Deploy.PoPs[0].ID
	imp, err := w.EventImpact(Event{Kind: EventPoPDown, PoP: pop})
	if err != nil {
		t.Fatal(err)
	}
	if len(imp.Ingresses) == 0 {
		t.Skip("PoP 0 has no peerings")
	}
	imp.Ingresses[0] = bgp.InvalidIngress
	if w.Deploy.PeeringsAt(pop)[0] == bgp.InvalidIngress {
		t.Error("EventImpact returned a slice aliasing the deployment")
	}
}
