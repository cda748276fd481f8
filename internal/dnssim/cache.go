package dnssim

import (
	"fmt"
	"sync"
	"time"
)

// This file models the DNS resolution chain whose caching behaviour
// §2.2 measures: an authoritative server owned by the cloud, recursive
// resolvers that cache answers for the TTL, and clients that violate
// TTLs by reusing addresses long after expiry. The Fig. 3 trace
// generator encodes the *outcome* of this behaviour statistically; this
// model reproduces the *mechanics*, letting tests quantify how record
// changes do (and do not) reach clients.

// Authoritative answers queries for the cloud's service names. The
// cloud rotates which prefix a name maps to when its steering decisions
// change; MapTo installs the new mapping.
type Authoritative struct {
	mu  sync.Mutex
	ttl time.Duration
	// mapping: name → prefix index.
	mapping map[string]int
	queries int
}

// newAuthoritative creates an authoritative server issuing answers with
// the given TTL.
func newAuthoritative(ttl time.Duration) *Authoritative {
	return &Authoritative{ttl: ttl, mapping: make(map[string]int)}
}

// mapTo points a name at a prefix index.
func (a *Authoritative) mapTo(name string, prefix int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mapping[name] = prefix
}

// Query answers authoritatively at time now.
func (a *Authoritative) Query(name string, now time.Time) (Record, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	p, ok := a.mapping[name]
	if !ok {
		return Record{}, fmt.Errorf("dnssim: NXDOMAIN %q", name)
	}
	return Record{Prefix: p, TTL: a.ttl, Issued: now}, nil
}

// queryCount returns how many authoritative queries were served.
func (a *Authoritative) queryCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queries
}

// RecursiveResolver caches authoritative answers for their TTL and
// serves the (shared) cached record to every client population behind
// it — the aggregation that makes DNS steering coarse.
type RecursiveResolver struct {
	upstream *Authoritative

	mu     sync.Mutex
	cache  map[string]Record
	hits   int
	misses int
}

// newRecursiveResolver creates a resolver over an authoritative server.
func newRecursiveResolver(up *Authoritative) *RecursiveResolver {
	return &RecursiveResolver{upstream: up, cache: make(map[string]Record)}
}

// Resolve returns the cached record when fresh, otherwise re-queries
// the authoritative server.
func (r *RecursiveResolver) Resolve(name string, now time.Time) (Record, error) {
	r.mu.Lock()
	if rec, ok := r.cache[name]; ok && !rec.expired(now) {
		r.hits++
		r.mu.Unlock()
		return rec, nil
	}
	r.misses++
	r.mu.Unlock()
	rec, err := r.upstream.Query(name, now)
	if err != nil {
		return Record{}, err
	}
	r.mu.Lock()
	r.cache[name] = rec
	r.mu.Unlock()
	return rec, nil
}

// hitRate returns the cache hit fraction.
func (r *RecursiveResolver) hitRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.hits + r.misses
	if total == 0 {
		return 0
	}
	return float64(r.hits) / float64(total)
}

// ClientBehavior describes how a client treats TTLs.
type ClientBehavior int

// Client behaviours observed in the wild (§2.2, [16, 35, 60, 73]).
const (
	// BehaviorHonorTTL re-resolves when the record expires.
	BehaviorHonorTTL ClientBehavior = iota
	// BehaviorPinUntilFlowEnd keeps using the address for the lifetime
	// of flows started while the record was valid (flows outlive TTL).
	BehaviorPinUntilFlowEnd
	// BehaviorCacheIndefinitely keeps using the address for new flows
	// long after expiry (app-layer caching; the paper measured these
	// outnumbering record-outliving flows roughly 2:1).
	BehaviorCacheIndefinitely
)

// Client models one endpoint's record usage.
type Client struct {
	resolver *RecursiveResolver
	behavior ClientBehavior

	mu   sync.Mutex
	held map[string]Record
}

// newClient creates a client with the given TTL behaviour.
func newClient(r *RecursiveResolver, b ClientBehavior) *Client {
	return &Client{resolver: r, behavior: b, held: make(map[string]Record)}
}

// addressFor returns the prefix index the client will send a NEW flow
// to at time now, resolving (or reusing a stale record) per behaviour.
// The second return reports whether the record used was already expired
// — i.e., the cloud has lost control of this flow's destination.
func (c *Client) addressFor(name string, now time.Time) (int, bool, error) {
	c.mu.Lock()
	rec, have := c.held[name]
	c.mu.Unlock()

	switch c.behavior {
	case BehaviorCacheIndefinitely:
		if have {
			return rec.Prefix, rec.expired(now), nil
		}
	default:
		if have && !rec.expired(now) {
			return rec.Prefix, false, nil
		}
	}
	fresh, err := c.resolver.Resolve(name, now)
	if err != nil {
		return 0, false, err
	}
	c.mu.Lock()
	c.held[name] = fresh
	c.mu.Unlock()
	return fresh.Prefix, fresh.expired(now), nil
}

// flowDestination returns the prefix a flow STARTED at start and still
// running at now is using, and whether the record backing it has
// expired mid-flow. Flows never re-resolve (connections cannot move),
// which is the other half of the paper's post-expiry traffic.
func (c *Client) flowDestination(name string, start, now time.Time) (int, bool, error) {
	p, _, err := c.addressFor(name, start)
	if err != nil {
		return 0, false, err
	}
	c.mu.Lock()
	rec := c.held[name]
	c.mu.Unlock()
	return p, rec.expired(now), nil
}
