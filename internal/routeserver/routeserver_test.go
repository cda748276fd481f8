package routeserver

import (
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"painter/internal/bgp"
	"painter/internal/obs"
)

func startServer(t *testing.T, damping *bgp.DampingConfig) *Server {
	t.Helper()
	s, err := New(Config{
		ListenAddr: "127.0.0.1:0",
		LocalAS:    64999,
		BGPID:      0x0a00f311,
		HoldTime:   5 * time.Second,
		Damping:    damping,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialSpeaker(t *testing.T, addr string, as uint16) *bgp.Speaker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sp := bgp.NewSpeaker(conn, as, uint32(as), 5*time.Second)
	if err := sp.Handshake(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = sp.Run() }()
	t.Cleanup(func() { sp.Close() })
	return sp
}

func announce(t *testing.T, sp *bgp.Speaker, prefix string, path ...uint16) {
	t.Helper()
	err := sp.SendUpdate(bgp.Update{
		Origin:  bgp.OriginIGP,
		ASPath:  path,
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix(prefix)},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestServerLearnsRoutes(t *testing.T) {
	s := startServer(t, nil)
	sp := dialSpeaker(t, s.Addr(), 64500)
	announce(t, sp, "10.0.0.0/24", 64500)
	announce(t, sp, "10.0.1.0/24", 64500)
	waitFor(t, func() bool { return s.RIB().Size() == 2 }, "RIB did not learn 2 prefixes")
	best, ok := s.RIB().Best(netip.MustParsePrefix("10.0.0.0/24"))
	if !ok {
		t.Fatal("prefix missing")
	}
	// The server prepends the session's AS to the path.
	if len(best.ASPath) != 2 || best.ASPath[0] != 64500 {
		t.Errorf("AS path = %v", best.ASPath)
	}
}

func TestServerWithdrawAndSessionDrop(t *testing.T) {
	s := startServer(t, nil)
	sp := dialSpeaker(t, s.Addr(), 64500)
	announce(t, sp, "10.0.0.0/24", 64500)
	waitFor(t, func() bool { return s.RIB().Size() == 1 }, "not learned")

	if err := sp.SendUpdate(bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.RIB().Size() == 0 }, "withdraw not applied")

	announce(t, sp, "10.0.1.0/24", 64500)
	waitFor(t, func() bool { return s.RIB().Size() == 1 }, "re-announce not applied")
	_ = sp.Close()
	waitFor(t, func() bool { return s.RIB().Size() == 0 }, "session drop should flush routes")
}

func TestServerBestPathAcrossPeers(t *testing.T) {
	s := startServer(t, nil)
	a := dialSpeaker(t, s.Addr(), 64500)
	b := dialSpeaker(t, s.Addr(), 64501)
	announce(t, a, "10.0.0.0/24", 64500, 65000, 65001) // longer path
	announce(t, b, "10.0.0.0/24", 64501)               // shorter path
	waitFor(t, func() bool {
		best, ok := s.RIB().Best(netip.MustParsePrefix("10.0.0.0/24"))
		return ok && len(best.ASPath) == 2 && best.ASPath[0] == 64501
	}, "decision process did not pick the shorter path")
	if st := s.Stats(); st.Sessions != 2 || st.Updates < 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServerDampingSuppressesFlapper(t *testing.T) {
	cfg := bgp.DefaultDampingConfig()
	s := startServer(t, &cfg)
	sp := dialSpeaker(t, s.Addr(), 64500)
	p := "10.0.0.0/24"
	// Flap hard: announce/withdraw repeatedly.
	for i := 0; i < 4; i++ {
		announce(t, sp, p, 64500)
		if err := sp.SendUpdate(bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix(p)}}); err != nil {
			t.Fatal(err)
		}
	}
	announce(t, sp, p, 64500)
	waitFor(t, func() bool { return s.Stats().SuppressedAnnounces > 0 },
		"flapping prefix was never suppressed")
	if !s.Suppressed(netip.MustParsePrefix(p)) {
		t.Error("prefix should be suppressed")
	}
	// A well-behaved prefix is unaffected.
	announce(t, sp, "10.9.0.0/24", 64500)
	waitFor(t, func() bool {
		_, ok := s.RIB().Best(netip.MustParsePrefix("10.9.0.0/24"))
		return ok
	}, "stable prefix should be accepted")
}

// TestStatsReadRegistry: Stats and the registry are one set of
// counters, so after announcements, withdrawals and damping every
// Stats field equals its scraped metric.
func TestStatsReadRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	damping := bgp.DefaultDampingConfig()
	s, err := New(Config{
		ListenAddr: "127.0.0.1:0",
		LocalAS:    64999,
		BGPID:      0x0a00f311,
		HoldTime:   5 * time.Second,
		Damping:    &damping,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sp := dialSpeaker(t, s.Addr(), 64500)
	p := "10.0.0.0/24"
	for i := 0; i < 4; i++ {
		announce(t, sp, p, 64500)
		if err := sp.SendUpdate(bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix(p)}}); err != nil {
			t.Fatal(err)
		}
	}
	announce(t, sp, p, 64500)
	// The session is one ordered stream: once its last update is in
	// the RIB, every earlier one has been counted.
	announce(t, sp, "10.9.0.0/24", 64500)
	waitFor(t, func() bool {
		_, ok := s.RIB().Best(netip.MustParsePrefix("10.9.0.0/24"))
		return ok
	}, "last announcement not applied")

	st, snap := s.Stats(), reg.Snapshot()
	if st.SuppressedAnnounces == 0 || st.Withdraws == 0 {
		t.Fatalf("traffic did not exercise damping and withdrawals: %+v", st)
	}
	fields := []struct {
		field  string
		stat   float64
		scrape float64
	}{
		{"Updates", float64(st.Updates), float64(snap.Counters["routeserver_updates_total"])},
		{"Withdraws", float64(st.Withdraws), float64(snap.Counters["routeserver_withdraws_total"])},
		{"SuppressedAnnounces", float64(st.SuppressedAnnounces), float64(snap.Counters["routeserver_suppressed_total"])},
		{"Sessions", float64(st.Sessions), snap.Gauges["routeserver_sessions"]},
		{"Prefixes", float64(st.Prefixes), snap.Gauges["routeserver_rib_prefixes"]},
	}
	if n := reflect.TypeOf(st).NumField(); n != len(fields) {
		t.Errorf("Stats has %d fields, the test's table %d", n, len(fields))
	}
	for _, c := range fields {
		if c.stat != c.scrape {
			t.Errorf("Stats().%s = %v, registry reads %v", c.field, c.stat, c.scrape)
		}
	}
}
