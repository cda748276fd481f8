package dnssim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Record is one DNS A-record answer.
type Record struct {
	// Prefix indexes into the advertisement configuration (which prefix
	// the returned address belongs to); -1 means the anycast prefix.
	Prefix int
	TTL    time.Duration
	// Issued is when the authoritative answer was generated.
	Issued time.Time
}

// expired reports whether the record is past TTL at t.
func (r Record) expired(t time.Time) bool { return t.After(r.Issued.Add(r.TTL)) }

// The model below is the DNS resolution chain whose caching behaviour
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

var t0 = time.Date(2023, 9, 10, 12, 0, 0, 0, time.UTC)

func chain(ttl time.Duration) (*Authoritative, *RecursiveResolver) {
	auth := newAuthoritative(ttl)
	auth.mapTo("svc.cloud.example", 0)
	return auth, newRecursiveResolver(auth)
}

func TestAuthoritativeMapping(t *testing.T) {
	auth := newAuthoritative(time.Minute)
	if _, err := auth.Query("missing", t0); err == nil {
		t.Error("NXDOMAIN expected")
	}
	auth.mapTo("a", 3)
	rec, err := auth.Query("a", t0)
	if err != nil || rec.Prefix != 3 || rec.TTL != time.Minute {
		t.Errorf("rec = %+v, %v", rec, err)
	}
	auth.mapTo("a", 5)
	rec, _ = auth.Query("a", t0)
	if rec.Prefix != 5 {
		t.Errorf("remap not applied: %d", rec.Prefix)
	}
}

func TestResolverCachesForTTL(t *testing.T) {
	auth, res := chain(time.Minute)
	for i := 0; i < 5; i++ {
		if _, err := res.Resolve("svc.cloud.example", t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if q := auth.queryCount(); q != 1 {
		t.Errorf("authoritative queried %d times within TTL, want 1", q)
	}
	// Past TTL the resolver re-queries.
	if _, err := res.Resolve("svc.cloud.example", t0.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if q := auth.queryCount(); q != 2 {
		t.Errorf("authoritative queried %d times after expiry, want 2", q)
	}
	if hr := res.hitRate(); hr < 0.5 {
		t.Errorf("hit rate %.2f too low", hr)
	}
}

func TestResolverSharesCacheAcrossClients(t *testing.T) {
	// The coarseness problem: a remap is invisible to every client of
	// the resolver until the shared record expires.
	auth, res := chain(10 * time.Minute)
	c1 := newClient(res, BehaviorHonorTTL)
	c2 := newClient(res, BehaviorHonorTTL)

	p1, _, err := c1.addressFor("svc.cloud.example", t0)
	if err != nil {
		t.Fatal(err)
	}
	auth.mapTo("svc.cloud.example", 7) // the cloud re-steers
	p2, _, err := c2.addressFor("svc.cloud.example", t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("client 2 saw the remap (%d vs %d) despite the shared cached record", p1, p2)
	}
	// After expiry, new resolutions see the new mapping.
	p3, _, err := c2.addressFor("svc.cloud.example", t0.Add(11*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if p3 != 7 {
		t.Errorf("post-expiry resolution = %d, want 7", p3)
	}
}

func TestHonorTTLClientReResolves(t *testing.T) {
	auth, res := chain(time.Minute)
	c := newClient(res, BehaviorHonorTTL)
	p, expired, err := c.addressFor("svc.cloud.example", t0)
	if err != nil || expired || p != 0 {
		t.Fatalf("initial: %d %v %v", p, expired, err)
	}
	auth.mapTo("svc.cloud.example", 9)
	p, expired, err = c.addressFor("svc.cloud.example", t0.Add(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if expired {
		t.Error("honoring client never uses expired records")
	}
	if p != 9 {
		t.Errorf("got %d, want fresh mapping 9", p)
	}
}

func TestCacheIndefinitelyClientUsesStaleRecords(t *testing.T) {
	auth, res := chain(30 * time.Second)
	c := newClient(res, BehaviorCacheIndefinitely)
	if _, _, err := c.addressFor("svc.cloud.example", t0); err != nil {
		t.Fatal(err)
	}
	auth.mapTo("svc.cloud.example", 9)
	// Hours later, new flows still go to the stale address — the 80%-
	// after-5-minutes phenomenon of Fig. 3.
	p, expired, err := c.addressFor("svc.cloud.example", t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !expired {
		t.Error("record should be reported expired")
	}
	if p != 0 {
		t.Errorf("caching client moved to %d; should still use the stale address", p)
	}
}

func TestFlowOutlivesRecord(t *testing.T) {
	_, res := chain(30 * time.Second)
	c := newClient(res, BehaviorPinUntilFlowEnd)
	start := t0
	// Flow starts while the record is valid…
	p, expired, err := c.flowDestination("svc.cloud.example", start, start.Add(10*time.Second))
	if err != nil || expired || p != 0 {
		t.Fatalf("mid-TTL: %d %v %v", p, expired, err)
	}
	// …and is still running 10 minutes later: same destination, record
	// long expired — traffic the cloud can no longer steer.
	p, expired, err = c.flowDestination("svc.cloud.example", start, start.Add(10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 || !expired {
		t.Errorf("flow dest = %d expired=%v, want pinned 0 with expired record", p, expired)
	}
}
