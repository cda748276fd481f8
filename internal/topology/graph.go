package topology

import (
	"fmt"
	"sort"
)

// Graph is an AS-level topology. It is immutable after Build; all query
// methods are safe for concurrent use.
type Graph struct {
	ases map[ASN]*AS
	// rel[a] maps neighbor b to the relationship from a's point of view.
	rel map[ASN]map[ASN]Relationship

	sortedASNs []ASN

	// idxState caches the dense Index (see index.go).
	idxState indexState
}

// NewGraph creates an empty topology graph.
func NewGraph() *Graph {
	return &Graph{
		ases: make(map[ASN]*AS),
		rel:  make(map[ASN]map[ASN]Relationship),
	}
}

// AddAS inserts an AS. It returns an error on duplicate ASN.
func (g *Graph) AddAS(a *AS) error {
	if a == nil {
		return fmt.Errorf("topology: nil AS")
	}
	if _, ok := g.ases[a.ASN]; ok {
		return fmt.Errorf("topology: duplicate %v", a.ASN)
	}
	cp := *a
	sort.Strings(cp.Metros)
	g.ases[a.ASN] = &cp
	g.rel[a.ASN] = make(map[ASN]Relationship)
	g.sortedASNs = nil
	g.invalidateIndex()
	return nil
}

// Link connects two ASes with the relationship seen from a's side:
// rel == RelCustomer means b is a's customer; rel == RelPeer means they
// peer. Links are recorded symmetrically.
func (g *Graph) Link(a, b ASN, rel Relationship) error {
	if a == b {
		return fmt.Errorf("topology: self link on %v", a)
	}
	asA, okA := g.ases[a]
	asB, okB := g.ases[b]
	if !okA || !okB {
		return fmt.Errorf("topology: link %v-%v references unknown AS", a, b)
	}
	if rel != RelCustomer && rel != RelPeer && rel != RelProvider {
		return fmt.Errorf("topology: invalid relationship %v", rel)
	}
	if existing := g.rel[a][b]; existing != RelNone {
		return fmt.Errorf("topology: duplicate link %v-%v", a, b)
	}
	g.rel[a][b] = rel
	g.rel[b][a] = rel.invert()
	switch rel {
	case RelCustomer:
		asA.Customers = append(asA.Customers, b)
		asB.Providers = append(asB.Providers, a)
	case RelProvider:
		asA.Providers = append(asA.Providers, b)
		asB.Customers = append(asB.Customers, a)
	case RelPeer:
		asA.Peers = append(asA.Peers, b)
		asB.Peers = append(asB.Peers, a)
	}
	g.invalidateIndex()
	return nil
}

// AS returns the AS with the given number, or nil if absent. The returned
// value must not be mutated.
func (g *Graph) AS(n ASN) *AS { return g.ases[n] }

// Has reports whether the ASN exists.
func (g *Graph) Has(n ASN) bool { _, ok := g.ases[n]; return ok }

// Len returns the number of ASes.
func (g *Graph) Len() int { return len(g.ases) }

// Rel returns the relationship from a to b (RelNone if not adjacent).
func (g *Graph) Rel(a, b ASN) Relationship {
	if m, ok := g.rel[a]; ok {
		return m[b]
	}
	return RelNone
}

// ASNs returns all ASNs in ascending order. The slice is cached; callers
// must not modify it.
func (g *Graph) ASNs() []ASN {
	if g.sortedASNs == nil {
		out := make([]ASN, 0, len(g.ases))
		for n := range g.ases {
			out = append(out, n)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		g.sortedASNs = out
	}
	return g.sortedASNs
}

// customerCone returns the set of ASNs in the customer cone of root: root
// itself plus every AS reachable by repeatedly following provider→customer
// links (Luckie et al.). By definition an AS carries traffic from its
// customer cone to any destination, which is what makes cone membership a
// proof of policy compliance (§3.1).
func (g *Graph) customerCone(root ASN) map[ASN]bool {
	cone := make(map[ASN]bool)
	if !g.Has(root) {
		return cone
	}
	stack := []ASN{root}
	cone[root] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.ases[n].Customers {
			if !cone[c] {
				cone[c] = true
				stack = append(stack, c)
			}
		}
	}
	return cone
}

// ConeSize returns |CustomerCone(root)|.
func (g *Graph) ConeSize(root ASN) int { return len(g.customerCone(root)) }

// InCone reports whether member is in the customer cone of root.
func (g *Graph) InCone(root, member ASN) bool {
	if root == member {
		return g.Has(root)
	}
	// BFS from member upward through providers; cheaper than materializing
	// the (potentially huge) downward cone of a tier-1.
	seen := map[ASN]bool{member: true}
	queue := []ASN{member}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		as := g.ases[n]
		if as == nil {
			continue
		}
		for _, p := range as.Providers {
			if p == root {
				return true
			}
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	return false
}

// Validate checks structural invariants: symmetric relationships, no
// provider loops (the customer→provider digraph must be acyclic), and
// tier-1 ASes having no providers.
func (g *Graph) Validate() error {
	for a, m := range g.rel {
		for b, r := range m {
			if got := g.rel[b][a]; got != r.invert() {
				return fmt.Errorf("topology: asymmetric link %v-%v: %v vs %v", a, b, r, got)
			}
		}
	}
	for _, n := range g.ASNs() {
		a := g.ases[n]
		if a.Tier == TierOne && len(a.Providers) > 0 {
			return fmt.Errorf("topology: tier-1 %v has providers", n)
		}
	}
	// Cycle detection on customer→provider edges via DFS coloring.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[ASN]int, len(g.ases))
	var visit func(n ASN) error
	visit = func(n ASN) error {
		color[n] = gray
		for _, p := range g.ases[n].Providers {
			switch color[p] {
			case gray:
				return fmt.Errorf("topology: provider cycle through %v and %v", n, p)
			case white:
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, n := range g.ASNs() {
		if color[n] == white {
			if err := visit(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats summarizes the topology.
type Stats struct {
	ASes, Links                int
	Tier1, Tier2, Stubs        int
	CustomerLinks, PeerLinks   int
	MaxConeSize, MeanStubProvs int
}

// Stats computes summary statistics for the graph.
func (g *Graph) Stats() Stats {
	var s Stats
	s.ASes = len(g.ases)
	provSum, stubs := 0, 0
	for _, n := range g.ASNs() {
		a := g.ases[n]
		switch a.Tier {
		case TierOne:
			s.Tier1++
		case TierTwo:
			s.Tier2++
		default:
			s.Stubs++
			provSum += len(a.Providers)
			stubs++
		}
		s.CustomerLinks += len(a.Customers)
		s.PeerLinks += len(a.Peers)
		if c := g.ConeSize(n); c > s.MaxConeSize {
			s.MaxConeSize = c
		}
	}
	s.PeerLinks /= 2 // counted from both sides
	s.Links = s.CustomerLinks + s.PeerLinks
	if stubs > 0 {
		s.MeanStubProvs = provSum / stubs
	}
	return s
}
