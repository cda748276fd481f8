// Package routeserver implements a small BGP route server: it accepts
// speaker sessions, maintains a RIB from their announcements, applies
// route-flap damping, and exposes a queryable snapshot. In the PAINTER
// deployment story this is the PoP-side route machinery painterd
// installs advertisement configurations into (Fig. 4's "Advertisement
// Installation"); in the evaluation it doubles as the RIS-like
// collector counting churn.
package routeserver

import (
	"fmt"
	"net"
	"sync"
	"time"

	"painter/internal/bgp"
	"painter/internal/obs"
	"painter/internal/obs/span"
)

// Config configures a route server.
type Config struct {
	// ListenAddr is the TCP address to accept BGP sessions on.
	ListenAddr string
	// LocalAS / BGPID identify the server in OPEN messages.
	LocalAS uint16
	BGPID   uint32
	// HoldTime for sessions.
	HoldTime time.Duration
	// Damping, when non-nil, suppresses flapping prefixes.
	Damping *bgp.DampingConfig
	// Logf, when set, receives event logs.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives route-server metrics (update/withdraw
	// counters, session and flap-damping gauges); nil keeps them in a
	// private registry. Stats reads these counters, so each server
	// needs a registry of its own.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per update message with
	// child spans for each announce/withdraw decision, including whether
	// flap damping suppressed the announcement. Nil disables tracing.
	Tracer *span.Tracer
}

// Server is a running route server.
type Server struct {
	cfg Config
	ln  net.Listener
	rib *bgp.RIB
	dmp *bgp.Damper

	mu       sync.Mutex
	sessions map[bgp.PeerID]*bgp.Speaker
	nextPeer uint32

	m rsMetrics

	wg     sync.WaitGroup
	closed chan struct{}
}

// rsMetrics bundles the route server's obs handles, the one home of
// the counters Stats reports.
type rsMetrics struct {
	updates    *obs.Counter
	withdraws  *obs.Counter
	suppressed *obs.Counter
}

// newRSMetrics registers the route server's metrics on r, or on a
// private registry when r is nil.
func newRSMetrics(r *obs.Registry, s *Server) rsMetrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	m := rsMetrics{
		updates:    r.Counter("routeserver_updates_total", "NLRI announcements received"),
		withdraws:  r.Counter("routeserver_withdraws_total", "prefix withdrawals received"),
		suppressed: r.Counter("routeserver_suppressed_total", "announcements suppressed by flap damping"),
	}
	r.GaugeFunc("routeserver_sessions", "live BGP sessions", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})
	r.GaugeFunc("routeserver_rib_prefixes", "prefixes in the RIB", func() float64 {
		return float64(s.rib.Size())
	})
	if s.dmp != nil {
		r.GaugeFunc("routeserver_damped_prefixes", "prefixes currently suppressed by flap damping", func() float64 {
			return float64(s.dmp.SuppressedCount())
		})
	}
	return m
}

// New starts a route server.
func New(cfg Config) (*Server, error) {
	if cfg.HoldTime <= 0 {
		cfg.HoldTime = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("routeserver: listen: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		rib:      bgp.NewRIB(nil),
		sessions: make(map[bgp.PeerID]*bgp.Speaker),
		closed:   make(chan struct{}),
	}
	if cfg.Damping != nil {
		s.dmp = bgp.NewDamper(*cfg.Damping, nil)
	}
	s.m = newRSMetrics(cfg.Obs, s)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// RIB returns the server's RIB (live; safe for concurrent reads).
func (s *Server) RIB() *bgp.RIB { return s.rib }

// Stats is a counters snapshot.
type Stats struct {
	Sessions            int
	Updates, Withdraws  uint64
	SuppressedAnnounces uint64
	Prefixes            int
}

// Stats returns current counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return Stats{
		Sessions:            n,
		Updates:             s.m.updates.Value(),
		Withdraws:           s.m.withdraws.Value(),
		SuppressedAnnounces: s.m.suppressed.Value(),
		Prefixes:            s.rib.Size(),
	}
}

// Close stops the server and all sessions.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.ln.Close()
	s.mu.Lock()
	for _, sp := range s.sessions {
		_ = sp.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

func (s *Server) serve(conn net.Conn) {
	sp := bgp.NewSpeaker(conn, s.cfg.LocalAS, s.cfg.BGPID, s.cfg.HoldTime)
	if err := sp.Handshake(); err != nil {
		s.cfg.Logf("routeserver: handshake with %s failed: %v", conn.RemoteAddr(), err)
		_ = conn.Close()
		return
	}
	s.mu.Lock()
	s.nextPeer++
	id := bgp.PeerID(s.nextPeer)
	s.sessions[id] = sp
	s.mu.Unlock()
	s.cfg.Logf("routeserver: session %d up with AS%d (%s)", id, sp.PeerOpen.AS, conn.RemoteAddr())

	sp.OnUpdate = func(u bgp.Update) { s.handleUpdate(id, sp.PeerOpen.AS, u) }
	err := sp.Run()
	s.cfg.Logf("routeserver: session %d down (%v)", id, err)
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	s.rib.DropPeer(id)
	_ = sp.Close()
}

func (s *Server) handleUpdate(peer bgp.PeerID, peerAS uint16, u bgp.Update) {
	var us *span.Span
	if s.cfg.Tracer != nil {
		us = s.cfg.Tracer.StartRoot("routeserver.update",
			span.A("peer", fmt.Sprintf("%d", peer)),
			span.A("peer_as", fmt.Sprintf("%d", peerAS)),
			span.A("nlri", fmt.Sprintf("%d", len(u.NLRI))),
			span.A("withdrawn", fmt.Sprintf("%d", len(u.Withdrawn))))
		defer us.Finish()
	}
	for _, p := range u.Withdrawn {
		s.m.withdraws.Inc()
		if s.dmp != nil {
			s.dmp.OnWithdraw(p)
		}
		s.rib.Withdraw(peer, p)
		if us != nil {
			ws := us.StartChild("routeserver.withdraw", span.A("prefix", p.String()))
			ws.Finish()
		}
	}
	for _, p := range u.NLRI {
		s.m.updates.Inc()
		var as *span.Span
		if us != nil {
			as = us.StartChild("routeserver.announce", span.A("prefix", p.String()))
		}
		if s.dmp != nil {
			s.dmp.OnAttrChange(p)
			if s.dmp.Suppressed(p) {
				s.m.suppressed.Inc()
				if as != nil {
					as.SetAttr("damped", "true")
					as.Finish()
				}
				continue
			}
		}
		if as != nil {
			as.SetAttr("damped", "false")
			as.Finish()
		}
		s.rib.Learn(bgp.RIBEntry{
			Peer:      peer,
			Prefix:    p,
			ASPath:    append([]uint16{peerAS}, u.ASPath...),
			NextHop:   u.NextHop,
			LocalPref: u.LocalPref,
			MED:       u.MED,
			Origin:    u.Origin,
		})
	}
}
