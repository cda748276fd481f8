package dnssim

import (
	"testing"
	"time"
)

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
