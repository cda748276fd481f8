package figures

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"painter/internal/bgp"
	"painter/internal/netsim/emul"
	"painter/internal/tm"
	"painter/internal/tmproto"
)

// Fig10Config shapes the live failover run. Durations are wall-clock;
// the defaults compress the paper's 128-second timeline into a few
// seconds while keeping every phase (steady state, withdrawal, anycast
// outage, BGP path exploration, reconvergence).
type Fig10Config struct {
	// PreFail is how long the system runs before PoP-A fails.
	PreFail time.Duration
	// PostFail is how long to keep sampling after the failure.
	PostFail time.Duration
	// SampleInterval is the time-series sampling cadence.
	SampleInterval time.Duration
	// ProbeInterval for the TM-Edge.
	ProbeInterval time.Duration
	// AnycastOutage is how long the anycast prefix is unreachable after
	// withdrawal (the paper observed ~1 s).
	AnycastOutage time.Duration
	// ConvergeAfter is when the anycast path settles on its final
	// (higher-latency) route, accompanied by the RIS update spike (~15 s
	// in the paper).
	ConvergeAfter time.Duration
	// Link one-way delays.
	DelayAnycastA, DelayAnycastB time.Duration
	DelayUnicastA, DelayUnicastB time.Duration
}

// DefaultFig10Config returns the compressed timeline.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		PreFail:        1500 * time.Millisecond,
		PostFail:       2500 * time.Millisecond,
		SampleInterval: 100 * time.Millisecond,
		ProbeInterval:  4 * time.Millisecond,
		AnycastOutage:  400 * time.Millisecond,
		ConvergeAfter:  1200 * time.Millisecond,
		DelayAnycastA:  10 * time.Millisecond,
		DelayAnycastB:  16 * time.Millisecond,
		DelayUnicastA:  6 * time.Millisecond,
		DelayUnicastB:  13 * time.Millisecond,
	}
}

// Fig10Sample is one time-series point.
type Fig10Sample struct {
	T time.Duration // since run start
	// RTTMs per prefix name; negative when the destination is dead.
	RTTMs map[string]float64
	// Selected prefix name.
	Selected string
	// BGPUpdates observed by the RIS-like collector in this bucket.
	BGPUpdates int
}

// Fig10Result is the full run outcome.
type Fig10Result struct {
	Samples []Fig10Sample
	// FailAt is when the withdrawal happened (since start).
	FailAt time.Duration
	// DetectedAfter is how long after the failure the edge declared the
	// selected destination dead.
	DetectedAfter time.Duration
	// SwitchedAfter is how long after the failure the edge selected the
	// backup prefix.
	SwitchedAfter time.Duration
	// DetectionRTTs expresses DetectedAfter in units of the dead path's
	// RTT (the paper: typically 1.3 RTT, minimum 0.5).
	DetectionRTTs   float64
	TotalBGPUpdates int
}

// RunFig10 stands up the live prototype: two TM-PoPs, four unicast
// prefixes (two per PoP) plus the anycast prefix, all reached through
// latency-emulating UDP links; a BGP speaker pair emulating a RIS
// collector view of the anycast reconvergence; and a TM-Edge that must
// fail over when PoP-A's prefixes are withdrawn.
func RunFig10(cfg Fig10Config) (*Fig10Result, error) {
	popA, err := tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	defer popA.Close()
	popB, err := tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	defer popB.Close()

	// Five prefixes: anycast (served by A pre-failure), two unicast at A,
	// two at B.
	mkLink := func(target string, d time.Duration, seed int64) (*emul.Link, error) {
		return emul.NewLink(target, d, seed)
	}
	anycast, err := mkLink(popA.Addr(), cfg.DelayAnycastA, 11)
	if err != nil {
		return nil, err
	}
	defer anycast.Close()
	uniA1, err := mkLink(popA.Addr(), cfg.DelayUnicastA, 12)
	if err != nil {
		return nil, err
	}
	defer uniA1.Close()
	uniA2, err := mkLink(popA.Addr(), cfg.DelayUnicastA+3*time.Millisecond, 13)
	if err != nil {
		return nil, err
	}
	defer uniA2.Close()
	uniB1, err := mkLink(popB.Addr(), cfg.DelayUnicastB, 14)
	if err != nil {
		return nil, err
	}
	defer uniB1.Close()
	uniB2, err := mkLink(popB.Addr(), cfg.DelayUnicastB+6*time.Millisecond, 15)
	if err != nil {
		return nil, err
	}
	defer uniB2.Close()

	names := map[string]string{} // dest key -> prefix name
	mkDest := func(l *emul.Link, pop uint32, name string, anycastFlag bool) tmproto.Destination {
		ap := netip.MustParseAddrPort(l.Addr())
		d := tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: pop, Anycast: anycastFlag}
		names[l.Addr()] = name
		return d
	}
	dests := []tmproto.Destination{
		mkDest(anycast, 1, "1.1.1.0/24 (anycast)", true),
		mkDest(uniA1, 1, "2.2.2.0/24 (PoP-A)", false),
		mkDest(uniA2, 1, "4.4.4.0/24 (PoP-A)", false),
		mkDest(uniB1, 2, "3.3.3.0/24 (PoP-B)", false),
		mkDest(uniB2, 2, "5.5.5.0/24 (PoP-B)", false),
	}

	var failNanos atomic.Int64
	var detectedAfter, switchedAfter atomic.Int64
	var deadRTTMs atomic.Int64 // micro-ms *1000 for precision

	edgeCfg := tm.DefaultEdgeConfig()
	edgeCfg.Destinations = dests
	edgeCfg.ProbeInterval = cfg.ProbeInterval
	// Tolerate Go-timer scheduling jitter: at millisecond probe cadences
	// a single delayed tick must not read as path death.
	edgeCfg.MinFailureTimeout = 3 * cfg.ProbeInterval
	edgeCfg.OnEvent = func(ev tm.Event) {
		f := failNanos.Load()
		if f == 0 {
			return
		}
		since := ev.At.UnixNano() - f
		if since <= 0 {
			// Scheduling jitter can surface a pre-failure event after the
			// withdrawal timestamp is recorded; it is not a detection.
			return
		}
		switch ev.Kind {
		case tm.EventDestDead:
			if ev.Dest.PoP == 1 && !ev.Dest.Anycast && detectedAfter.Load() == 0 {
				detectedAfter.Store(since)
				deadRTTMs.Store(int64(ev.RTT / time.Microsecond))
			}
		case tm.EventSelected:
			if ev.Dest.PoP == 2 && switchedAfter.Load() == 0 {
				switchedAfter.Store(since)
			}
		}
	}
	edge, err := tm.NewEdge(edgeCfg)
	if err != nil {
		return nil, err
	}
	defer edge.Close()

	// RIS-like collector: a BGP session over loopback TCP; the "router"
	// side replays the anycast withdrawal and path-exploration updates.
	collector, router, updates, err := startCollector()
	if err != nil {
		return nil, err
	}
	defer collector.Close()
	defer router.Close()

	res := &Fig10Result{FailAt: cfg.PreFail}
	start := time.Now()
	ticker := time.NewTicker(cfg.SampleInterval)
	defer ticker.Stop()

	failed := false
	total := cfg.PreFail + cfg.PostFail
	var lastUpdates uint64
	for now := range ticker.C {
		el := now.Sub(start)
		if el >= total {
			break
		}
		if !failed && el >= cfg.PreFail {
			failed = true
			failNanos.Store(time.Now().UnixNano())
			// Withdraw everything at PoP-A: unicast prefixes die; the
			// anycast prefix blackholes then reconverges via PoP-B.
			uniA1.SetDown(true)
			uniA2.SetDown(true)
			anycast.SetDown(true)
			go replayReconvergence(router, cfg)
			go func() {
				time.Sleep(cfg.AnycastOutage)
				anycast.SetDelay(cfg.DelayAnycastB)
				anycast.SetDown(false)
			}()
		}
		sample := Fig10Sample{T: el, RTTMs: make(map[string]float64)}
		for _, ds := range edge.Status() {
			name := names[fmt.Sprintf("%s:%d", ds.Dest.Addr, ds.Dest.Port)]
			if ds.Alive {
				sample.RTTMs[name] = float64(ds.RTT) / float64(time.Millisecond)
			} else {
				sample.RTTMs[name] = -1
			}
			if ds.Selected {
				sample.Selected = name
			}
		}
		cur := updates.Load()
		sample.BGPUpdates = int(cur - lastUpdates)
		lastUpdates = cur
		res.Samples = append(res.Samples, sample)
	}
	res.TotalBGPUpdates = int(updates.Load())
	res.DetectedAfter = time.Duration(detectedAfter.Load())
	res.SwitchedAfter = time.Duration(switchedAfter.Load())
	if rtt := time.Duration(deadRTTMs.Load()) * time.Microsecond; rtt > 0 && res.DetectedAfter > 0 {
		res.DetectionRTTs = float64(res.DetectedAfter) / float64(rtt)
	}
	return res, nil
}

// startCollector starts a RIS-like collector speaker and a router
// speaker connected over loopback TCP, returning an update counter.
func startCollector() (collector, router *bgp.Speaker, updates *atomic.Uint64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	updates = &atomic.Uint64{}
	accepted := make(chan *bgp.Speaker, 1)
	go func() {
		conn, err := ln.Accept()
		_ = ln.Close()
		if err != nil {
			close(accepted)
			return
		}
		s := bgp.NewSpeaker(conn, 64999, x0a00felix(), 30*time.Second)
		s.OnUpdate = func(bgp.Update) { updates.Add(1) }
		if err := s.Handshake(); err != nil {
			close(accepted)
			return
		}
		go func() { _ = s.Run() }()
		accepted <- s
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, nil, err
	}
	router = bgp.NewSpeaker(conn, 64500, 0x0a000001, 30*time.Second)
	if err := router.Handshake(); err != nil {
		_ = conn.Close()
		return nil, nil, nil, err
	}
	go func() { _ = router.Run() }()
	var ok bool
	collector, ok = <-accepted
	if !ok {
		_ = conn.Close()
		return nil, nil, nil, fmt.Errorf("figures: collector handshake failed")
	}
	// Announce the anycast prefix once (steady state).
	_ = router.SendUpdate(bgp.Update{
		Origin: bgp.OriginIGP, ASPath: []uint16{64500},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("1.1.1.0/24")},
	})
	return collector, router, updates, nil
}

// 0x0a00felix is a memorable BGP identifier for the collector.
func x0a00felix() uint32 { return 0x0a00f311 }

// replayReconvergence sends the BGP churn a RIS collector would see:
// the withdrawal, a burst of path-exploration announcements spread over
// the convergence window, then the final stable path.
func replayReconvergence(router *bgp.Speaker, cfg Fig10Config) {
	prefix := netip.MustParsePrefix("1.1.1.0/24")
	_ = router.SendUpdate(bgp.Update{Withdrawn: []netip.Prefix{prefix}})
	const explorationUpdates = 24
	var wg sync.WaitGroup
	for i := 0; i < explorationUpdates; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(cfg.ConvergeAfter * time.Duration(i) / explorationUpdates)
			_ = router.SendUpdate(bgp.Update{
				Origin:  bgp.OriginIGP,
				ASPath:  []uint16{64500, uint16(65000 + i%7), uint16(65100 + i%5)},
				NextHop: netip.MustParseAddr("192.0.2.1"),
				NLRI:    []netip.Prefix{prefix},
			})
		}(i)
	}
	wg.Wait()
	_ = router.SendUpdate(bgp.Update{
		Origin: bgp.OriginIGP, ASPath: []uint16{64500, 65001},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{prefix},
	})
}

// Fig10Table renders the time series.
func Fig10Table(r *Fig10Result) Table {
	t := Table{
		Title: fmt.Sprintf("Fig 10 — failover time series (fail@%v, detected +%v = %.2f RTT, switched +%v, BGP updates %d)",
			r.FailAt, r.DetectedAfter, r.DetectionRTTs, r.SwitchedAfter, r.TotalBGPUpdates),
		Header: []string{"t", "selected", "bgp-upd", "anycast", "2.2.2.0 (A)", "3.3.3.0 (B)"},
	}
	for _, s := range r.Samples {
		rtt := func(name string) string {
			for k, v := range s.RTTMs {
				if len(k) >= len(name) && k[:len(name)] == name {
					if v < 0 {
						return "DOWN"
					}
					return num(v)
				}
			}
			return "?"
		}
		t.Rows = append(t.Rows, []string{
			s.T.Truncate(time.Millisecond).String(), s.Selected,
			fmt.Sprintf("%d", s.BGPUpdates),
			rtt("1.1.1.0"), rtt("2.2.2.0"), rtt("3.3.3.0"),
		})
	}
	return t
}
