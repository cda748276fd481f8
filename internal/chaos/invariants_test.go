package chaos

import (
	"fmt"

	"painter/internal/bgp"
	"painter/internal/topology"
)

// checkValleyFree verifies that a propagation result respects
// Gao–Rexford export rules, by local consistency at every AS:
//
//   - a customer-class route was learned from a customer that itself
//     selected a customer-class route (routes climb provider chains);
//   - a peer-class route was learned from a peer holding a
//     customer-class route (one peer hop, never re-exported upward);
//   - a provider-class route was learned from a provider (descent may
//     follow any class);
//   - path lengths decrease by exactly one per hop, so every via chain
//     terminates at an injection in PathLen steps.
//
// Injection-neighbor routes (Via == self) must match an injection's
// ingress, class, and prepended path length. Each local check holding at
// every AS implies, inductively on PathLen, that every selected route
// corresponds to a valley-free path into the cloud.
func checkValleyFree(g *topology.Graph, injections []bgp.Injection, sel *bgp.Result) error {
	injAt := make(map[topology.ASN][]bgp.Injection, len(injections))
	for _, inj := range injections {
		injAt[inj.Neighbor] = append(injAt[inj.Neighbor], inj)
	}
	for _, as := range g.ASNs() {
		r, ok := sel.Route(as)
		if !ok {
			continue
		}
		if r.PathLen < 1 {
			return fmt.Errorf("chaos: AS %v has non-positive path length %d", as, r.PathLen)
		}
		if r.Via == as {
			ok := false
			for _, inj := range injAt[as] {
				if inj.Ingress == r.Ingress && inj.Class == r.Class && 1+inj.Prepend == r.PathLen {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("chaos: AS %v claims injection route %+v but no matching injection exists", as, r)
			}
			continue
		}
		rv, ok := sel.Route(r.Via)
		if !ok {
			return fmt.Errorf("chaos: AS %v learned via %v, which selected no route", as, r.Via)
		}
		if rv.Ingress != r.Ingress {
			return fmt.Errorf("chaos: AS %v (ingress %d) learned via %v (ingress %d): ingress changed mid-path",
				as, r.Ingress, r.Via, rv.Ingress)
		}
		if rv.PathLen != r.PathLen-1 {
			return fmt.Errorf("chaos: AS %v path length %d but via %v has %d (want %d)",
				as, r.PathLen, r.Via, rv.PathLen, r.PathLen-1)
		}
		a := g.AS(as)
		if a == nil {
			return fmt.Errorf("chaos: AS %v not in topology", as)
		}
		switch r.Class {
		case bgp.ClassCustomer:
			if !containsASN(a.Customers, r.Via) {
				return fmt.Errorf("chaos: AS %v holds a customer route via %v, not a customer", as, r.Via)
			}
			if rv.Class != bgp.ClassCustomer {
				return fmt.Errorf("chaos: AS %v customer route via %v whose own route is %v (valley!)",
					as, r.Via, rv.Class)
			}
		case bgp.ClassPeer:
			if !containsASN(a.Peers, r.Via) {
				return fmt.Errorf("chaos: AS %v holds a peer route via %v, not a peer", as, r.Via)
			}
			if rv.Class != bgp.ClassCustomer {
				return fmt.Errorf("chaos: AS %v peer route via %v whose own route is %v (valley!)",
					as, r.Via, rv.Class)
			}
		case bgp.ClassProvider:
			if !containsASN(a.Providers, r.Via) {
				return fmt.Errorf("chaos: AS %v holds a provider route via %v, not a provider", as, r.Via)
			}
		default:
			return fmt.Errorf("chaos: AS %v has invalid route class %v", as, r.Class)
		}
	}
	return nil
}

func containsASN(list []topology.ASN, n topology.ASN) bool {
	for _, x := range list {
		if x == n {
			return true
		}
	}
	return false
}
