// Package topology models the AS-level Internet: autonomous systems,
// business relationships between them (customer–provider and settlement-
// free peering), customer cones, and a synthetic Internet generator that
// produces graphs with realistic tiered structure and geography.
//
// The Advertisement Orchestrator (internal/core) consumes this model in
// two ways, mirroring §3.1 of the paper: policy-compliant ingress sets
// are derived from BGP reachability and customer cones, and the routing
// simulator (internal/netsim) resolves which ingress a user group
// actually selects under a given advertisement configuration.
package topology

import (
	"fmt"
	"sort"
)

// ASN is an autonomous system number.
type ASN uint32

func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Relationship describes the business relationship from one AS to a
// neighbor, following the Gao–Rexford model.
type Relationship int8

const (
	// RelNone means the two ASes are not adjacent.
	RelNone Relationship = iota
	// RelProvider: the neighbor is my provider (I am its customer).
	RelProvider
	// RelCustomer: the neighbor is my customer (I am its provider).
	RelCustomer
	// RelPeer: settlement-free peering.
	RelPeer
)

func (r Relationship) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	default:
		return "none"
	}
}

// invert returns the relationship as seen from the other side of the link.
func (r Relationship) invert() Relationship {
	switch r {
	case RelProvider:
		return RelCustomer
	case RelCustomer:
		return RelProvider
	default:
		return r
	}
}

// Tier is the coarse position of an AS in the Internet hierarchy.
type Tier int8

const (
	// TierOne ASes are transit-free: they reach everyone via customers
	// and peers only.
	TierOne Tier = 1
	// TierTwo ASes are regional/national transit providers.
	TierTwo Tier = 2
	// TierStub ASes originate or sink traffic: enterprises, eyeball
	// networks, content networks.
	TierStub Tier = 3
)

// Kind classifies what a stub AS is used for. Transit ASes are KindTransit.
type Kind int8

const (
	KindTransit Kind = iota
	KindEnterprise
	KindEyeball
	KindContent
)

func (k Kind) String() string {
	switch k {
	case KindTransit:
		return "transit"
	case KindEnterprise:
		return "enterprise"
	case KindEyeball:
		return "eyeball"
	case KindContent:
		return "content"
	default:
		return "unknown"
	}
}

// AS is one autonomous system.
type AS struct {
	ASN    ASN
	Tier   Tier
	Kind   Kind
	Metros []string // metro codes where this AS has presence (sorted)

	// Adjacency, partitioned by relationship from this AS's view.
	Providers []ASN
	Customers []ASN
	Peers     []ASN
}

// PresentIn reports whether the AS has presence in the given metro.
func (a *AS) PresentIn(metro string) bool {
	i := sort.SearchStrings(a.Metros, metro)
	return i < len(a.Metros) && a.Metros[i] == metro
}
