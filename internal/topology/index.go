package topology

import "sync"

// Index is a compact, read-only view of a Graph used by hot whole-graph
// algorithms (route propagation, reachability): every AS is assigned a
// dense int32 ID in ascending-ASN order, and the three relationship
// adjacency lists are stored as flat CSR arrays of dense IDs. An Index
// is built once per Graph (lazily, on first use) and shared by all
// callers; it is immutable and safe for concurrent use.
type Index struct {
	asns []ASN         // dense ID → ASN, ascending
	id   map[ASN]int32 // ASN → dense ID

	providers csr
	peers     csr
	customers csr
}

// csr is a compressed sparse row adjacency: row i's neighbors are
// dst[off[i]:off[i+1]].
type csr struct {
	off []int32
	dst []int32
}

func (c csr) row(i int32) []int32 { return c.dst[c.off[i]:c.off[i+1]] }

// Len returns the number of ASes in the index.
func (x *Index) Len() int { return len(x.asns) }

// ID returns the dense ID for an ASN.
func (x *Index) ID(n ASN) (int32, bool) {
	i, ok := x.id[n]
	return i, ok
}

// ASN returns the ASN for a dense ID.
func (x *Index) ASN(i int32) ASN { return x.asns[i] }

// Providers returns the dense IDs of i's providers. The slice is shared;
// callers must not modify it.
func (x *Index) Providers(i int32) []int32 { return x.providers.row(i) }

// Peers returns the dense IDs of i's peers (shared; read-only).
func (x *Index) Peers(i int32) []int32 { return x.peers.row(i) }

// Customers returns the dense IDs of i's customers (shared; read-only).
func (x *Index) Customers(i int32) []int32 { return x.customers.row(i) }

// indexState holds the Graph's lazily built Index. Mutating methods
// (AddAS, Link) reset it; Index() rebuilds on demand under a lock so
// concurrent readers of a finished graph never observe a partial build.
type indexState struct {
	mu  sync.Mutex
	idx *Index
}

// Index returns the dense index for the graph, building it on first use.
// The graph must not be mutated concurrently with this call (Graph is
// immutable after construction in normal use).
func (g *Graph) Index() *Index {
	g.idxState.mu.Lock()
	defer g.idxState.mu.Unlock()
	if g.idxState.idx == nil {
		g.idxState.idx = buildIndex(g)
	}
	return g.idxState.idx
}

// invalidateIndex is called by Graph mutators.
func (g *Graph) invalidateIndex() {
	g.idxState.mu.Lock()
	g.idxState.idx = nil
	g.idxState.mu.Unlock()
}

func buildIndex(g *Graph) *Index {
	asns := g.ASNs()
	n := len(asns)
	x := &Index{
		asns: asns,
		id:   make(map[ASN]int32, n),
	}
	for i, a := range asns {
		x.id[a] = int32(i)
	}
	fill := func(pick func(a *AS) []ASN) csr {
		off := make([]int32, n+1)
		total := 0
		for i, a := range asns {
			total += len(pick(g.AS(a)))
			off[i+1] = int32(total)
		}
		dst := make([]int32, total)
		pos := 0
		for _, a := range asns {
			for _, nb := range pick(g.AS(a)) {
				dst[pos] = x.id[nb]
				pos++
			}
		}
		return csr{off: off, dst: dst}
	}
	x.providers = fill(func(a *AS) []ASN { return a.Providers })
	x.peers = fill(func(a *AS) []ASN { return a.Peers })
	x.customers = fill(func(a *AS) []ASN { return a.Customers })
	return x
}
