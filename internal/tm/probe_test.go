package tm

// Socket-free tests of the edge's probe state machine. probeRound and
// handleProbeReply take their clock as an argument, so an edge built by
// newEdge around a conn that only records what it is asked to send runs
// the whole failure-detection rule in virtual time: no sockets, no
// sleeps, every outcome exact.

import (
	"io"
	"math"
	"net/netip"
	"testing"
	"time"

	"painter/internal/tm/netio"
	"painter/internal/tmproto"
)

// sentProbe is one probe the edge wrote.
type sentProbe struct {
	seq uint32
	to  netip.AddrPort
}

// captureConn records the probes written to it and never yields a
// datagram.
type captureConn struct{ probes []sentProbe }

func (c *captureConn) WriteBatch(ms []netio.Message) (int, error) {
	for i, m := range ms {
		p, _, err := tmproto.ParseProbe(m.Buf[:m.N])
		if err != nil {
			return i, err
		}
		c.probes = append(c.probes, sentProbe{seq: p.Seq, to: m.Addr})
	}
	return len(ms), nil
}
func (c *captureConn) ReadBatch([]netio.Message) (int, error) { return 0, io.EOF }
func (c *captureConn) LocalAddr() netip.AddrPort              { return netip.AddrPort{} }
func (c *captureConn) Close() error                           { return nil }

type pendingReply struct {
	at  time.Duration
	seq uint32
}

// probeSim drives one edge on the ProbeInterval/4 tick the real probe
// loop uses. Every probe is answered one RTT after it left unless drop
// says otherwise; replies due by a tick are handed over, at their own
// arrival times, before that tick's round. All times are offsets from
// an arbitrary epoch.
type probeSim struct {
	t      *testing.T
	e      *Edge
	conn   *captureConn
	epoch  time.Time
	tick   time.Duration
	now    time.Duration
	rtt    map[netip.AddrPort]time.Duration
	sentAt map[uint32]time.Duration

	// drop, when set, decides which probes go unanswered.
	drop func(p sentProbe) bool
	// lateTick, when set, names ticks the probe loop misses.
	lateTick func(at time.Duration) bool
	// hold keeps replies queued instead of delivering them.
	hold bool

	pending     []pendingReply // in arrival order
	lastReplyAt time.Duration
	events      []Event
}

// newProbeSim builds an edge with one destination per RTT (PoP 1, 2, …
// in argument order) whose first probe carries sequence startSeq+1.
func newProbeSim(t *testing.T, probeInterval time.Duration, startSeq uint32, rtts ...time.Duration) *probeSim {
	t.Helper()
	s := &probeSim{
		t:      t,
		conn:   &captureConn{},
		epoch:  time.Unix(1_700_000_000, 0),
		tick:   probeInterval / 4,
		rtt:    make(map[netip.AddrPort]time.Duration),
		sentAt: make(map[uint32]time.Duration),
	}
	cfg := DefaultEdgeConfig()
	cfg.ProbeInterval = probeInterval
	cfg.OnEvent = func(ev Event) { s.events = append(s.events, ev) }
	s.e = newEdge(cfg.withDefaults(), s.conn, 32)
	s.e.seq = startSeq
	var dests []tmproto.Destination
	for i, rtt := range rtts {
		d := tmproto.Destination{Addr: netip.MustParseAddr("127.0.0.1"), Port: uint16(1000 + i), PoP: uint32(i + 1)}
		dests = append(dests, d)
		s.rtt[netip.AddrPortFrom(d.Addr, d.Port)] = rtt
	}
	if err := s.e.SetDestinations(dests); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *probeSim) at(d time.Duration) time.Time { return s.epoch.Add(d) }

// dest is the state of the destination standing for PoP pop.
func (s *probeSim) dest(pop uint32) *destState {
	for _, ds := range s.e.dests {
		if ds.dest.PoP == pop {
			return ds
		}
	}
	s.t.Fatalf("no destination for PoP %d", pop)
	return nil
}

// reply hands the edge the reply to seq, arriving now.
func (s *probeSim) reply(seq uint32) {
	s.e.handleProbeReply(s.at(s.now), tmproto.Probe{Seq: seq})
}

// step advances to the next tick.
func (s *probeSim) step() {
	next := s.now + s.tick
	for !s.hold && len(s.pending) > 0 && s.pending[0].at <= next {
		r := s.pending[0]
		s.pending = s.pending[1:]
		s.now = r.at
		s.reply(r.seq)
		s.lastReplyAt = r.at
	}
	s.now = next
	if s.lateTick != nil && s.lateTick(next) {
		return
	}
	s.conn.probes = s.conn.probes[:0]
	s.e.probeRound(s.at(next))
	for _, p := range s.conn.probes {
		s.sentAt[p.seq] = next
		if s.drop != nil && s.drop(p) {
			continue
		}
		// Destinations differ in RTT, so insert by arrival time.
		r := pendingReply{at: next + s.rtt[p.to], seq: p.seq}
		i := len(s.pending)
		for i > 0 && s.pending[i-1].at > r.at {
			i--
		}
		s.pending = append(s.pending, pendingReply{})
		copy(s.pending[i+1:], s.pending[i:])
		s.pending[i] = r
	}
}

// run advances by d.
func (s *probeSim) run(d time.Duration) {
	for end := s.now + d; s.now < end; {
		s.step()
	}
}

// runUntil steps until an event of the given kind for PoP pop appears
// and returns it.
func (s *probeSim) runUntil(kind EventKind, pop uint32, limit time.Duration) Event {
	s.t.Helper()
	seen := len(s.events)
	for end := s.now + limit; s.now < end; {
		s.step()
		for _, ev := range s.events[seen:] {
			if ev.Kind == kind && ev.Dest.PoP == pop {
				return ev
			}
		}
		seen = len(s.events)
	}
	s.t.Fatalf("no %v event for PoP %d within %v", kind, pop, limit)
	return Event{}
}

func (s *probeSim) count(kind EventKind) int {
	n := 0
	for _, ev := range s.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// wantTimeout is the rule, written out independently of the edge's own
// arithmetic: max(1.3·sRTT, MinFailureTimeout, gap + sRTT + 4·rttvar).
func wantTimeout(cfg EdgeConfig, ds *destState, gap time.Duration) time.Duration {
	ms := float64(time.Millisecond)
	want := time.Duration(failureRTTMultiple * ds.rttEWMA * ms)
	if want < cfg.MinFailureTimeout {
		want = cfg.MinFailureTimeout
	}
	if oneLoss := gap + time.Duration((ds.rttEWMA+4*ds.rttVar)*ms); want < oneLoss {
		want = oneLoss
	}
	return want
}

// geometries span the ratio of probe interval to RTT: probes pipelined
// four deep, one per round trip, and a path idle most of the time. The
// RTT sits off the tick grid so that no reply arrives on a round.
var geometries = []struct {
	name               string
	probeInterval, rtt time.Duration
}{
	{"interval=RTT/4", 5 * time.Millisecond, 20300 * time.Microsecond},
	{"interval=RTT", 20 * time.Millisecond, 20300 * time.Microsecond},
	{"interval=2.5RTT", 50 * time.Millisecond, 20300 * time.Microsecond},
}

// TestDetectAtOldestUnansweredProbeDeadline: on a path that answers
// every probe and is then cut, the destination dies on the first round
// past sentAt + T of the first probe that got no answer — not T after
// the last reply, which keeps arriving after the cut.
func TestDetectAtOldestUnansweredProbeDeadline(t *testing.T) {
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			s := newProbeSim(t, g.probeInterval, 0, g.rtt)
			s.run(60 * g.probeInterval) // the deviation estimate has decayed to nothing
			ds := s.dest(1)
			if !ds.alive() || s.count(EventDestDead) != 0 {
				t.Fatalf("loss-free warm-up: alive=%v, %d deaths", ds.alive(), s.count(EventDestDead))
			}
			var cut []uint32 // the probes that went unanswered, in send order
			s.drop = func(p sentProbe) bool { cut = append(cut, p.seq); return true }
			ev := s.runUntil(EventDestDead, 1, time.Second)

			oldest, next := s.sentAt[cut[0]], s.sentAt[cut[1]]
			T := wantTimeout(s.e.cfg, ds, next-oldest)
			tight := g.rtt + next - oldest
			if m := time.Duration(failureRTTMultiple * float64(g.rtt)); tight < m {
				tight = m
			}
			if T > tight+100*time.Microsecond {
				t.Fatalf("T = %v against %v from the true RTT: the warm-up left the estimate too loose to test a deadline", T, tight)
			}
			deadline := s.at(oldest + T)
			if !ev.At.After(deadline) {
				t.Errorf("declared dead at +%v, before the deadline +%v (oldest unanswered probe left at +%v, T %v)",
					ev.At.Sub(s.epoch), oldest+T, oldest, T)
			}
			if prev := ev.At.Add(-s.tick); prev.After(deadline) {
				t.Errorf("declared dead at +%v, but the round at +%v was already past the deadline +%v",
					ev.At.Sub(s.epoch), prev.Sub(s.epoch), oldest+T)
			}
			if want := ev.At.Sub(s.at(s.lastReplyAt)); ev.SinceLastReply != want {
				t.Errorf("SinceLastReply = %v, want %v (time since the last reply arrived)", ev.SinceLastReply, want)
			}
			// The point of the rule: replies sent before the cut kept
			// arriving after the doomed probe had left, so the clock
			// started earlier than the last reply.
			if g.probeInterval < g.rtt && s.lastReplyAt <= oldest {
				t.Errorf("last reply at +%v does not postdate the oldest unanswered probe (+%v)", s.lastReplyAt, oldest)
			}
			// The probe stays outstanding, and recovery probing started.
			if len(ds.probes) < 2 || ds.probes[0].seq != cut[0] {
				t.Errorf("ring after death does not start at the unanswered probe: %+v", ds.probes)
			}
		})
	}
}

// TestSingleLossNeverDetectsDeath: one lost probe, whose successor also
// leaves a tick late (1.25 probe intervals after it), is not a death at
// any ratio of probe interval to RTT.
func TestSingleLossNeverDetectsDeath(t *testing.T) {
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			s := newProbeSim(t, g.probeInterval, 0, g.rtt)
			s.run(60 * g.probeInterval)
			ds := s.dest(1)
			var lostAt time.Duration
			lost := false
			s.drop = func(sentProbe) bool {
				if lost {
					return false
				}
				lost, lostAt = true, s.now
				return true
			}
			s.lateTick = func(at time.Duration) bool { return lost && at == lostAt+g.probeInterval }
			s.run(10 * g.probeInterval)
			if !lost {
				t.Fatal("no probe was dropped")
			}
			if n := s.count(EventDestDead); n != 0 || !ds.alive() {
				t.Fatalf("one lost probe read as death (%d dest-dead events, alive=%v)", n, ds.alive())
			}
			if len(ds.probes) > int(g.rtt/g.probeInterval)+2 {
				t.Errorf("lost probe was not retired by its successor's reply: %d outstanding", len(ds.probes))
			}
		})
	}
}

// holdRing warms a one-destination edge up with probes pipelined eight
// deep, then withholds replies for one more probe interval — short of
// the failure timeout — leaving a ring of outstanding probes.
func holdRing(t *testing.T, startSeq uint32) *probeSim {
	t.Helper()
	s := newProbeSim(t, 5*time.Millisecond, startSeq, 40300*time.Microsecond)
	s.run(500 * time.Millisecond)
	s.hold = true
	s.run(5 * time.Millisecond)
	if n := len(s.dest(1).probes); n < 6 {
		t.Fatalf("only %d probes outstanding", n)
	}
	return s
}

// checkOwner verifies the seq→destination map holds exactly the rings.
func checkOwner(t *testing.T, e *Edge) {
	t.Helper()
	n := 0
	for _, ds := range e.dests {
		for _, r := range ds.probes {
			n++
			if e.owner[r.seq] != ds {
				t.Errorf("outstanding seq %d is not attributed to its destination", r.seq)
			}
		}
	}
	if len(e.owner) != n {
		t.Errorf("owner map holds %d sequences, the rings %d", len(e.owner), n)
	}
}

// TestReplyRetiresOlderProbes: a reply retires its probe and every
// older one — including across the uint32 sequence wrap — and a reply
// that arrives after a newer one changes nothing.
func TestReplyRetiresOlderProbes(t *testing.T) {
	if seqBefore(0x20, 0x10) || !seqBefore(0x10, 0x20) {
		t.Fatal("seqBefore wrong away from the wrap")
	}
	// 0xffffff00 was issued just before the counter wrapped to small
	// values, so it is before 0x10.
	if !seqBefore(0xffffff00, 0x10) || seqBefore(0x10, 0xffffff00) {
		t.Fatal("seqBefore wrong across the wrap")
	}

	// A dry run says how many probes precede the held ring; the second
	// case starts the counter that far short of the wrap, so the ring
	// straddles it.
	dry := holdRing(t, 0)
	wrapStart := uint32(0) - (dry.dest(1).probes[2].seq)
	for _, tc := range []struct {
		name     string
		startSeq uint32
		wraps    bool
	}{{"no wrap", 0, false}, {"across the wrap", wrapStart, true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := holdRing(t, tc.startSeq)
			ds := s.dest(1)
			ring := append([]probeRecord(nil), ds.probes...)
			if wraps := ring[0].seq > ring[len(ring)-1].seq; wraps != tc.wraps {
				t.Fatalf("ring %d…%d: wraps=%v, want %v", ring[0].seq, ring[len(ring)-1].seq, wraps, tc.wraps)
			}
			checkOwner(t, s.e)

			// The reply to the fourth probe overtakes the first three.
			before := ds.rttEWMA
			s.reply(ring[3].seq)
			if len(ds.probes) != len(ring)-4 || ds.probes[0].seq != ring[4].seq {
				t.Fatalf("after a reply to %d the ring is %+v, want it to start at %d", ring[3].seq, ds.probes, ring[4].seq)
			}
			checkOwner(t, s.e)
			sample := float64(s.now-s.sentAt[ring[3].seq]) / float64(time.Millisecond)
			if want := 0.7*before + 0.3*sample; math.Abs(ds.rttEWMA-want) > 1e-9 {
				t.Errorf("rttEWMA %.4f ms, want %.4f: the sample must run from the answered probe's own send time", ds.rttEWMA, want)
			}

			// The overtaken replies arrive: counted, otherwise ignored.
			ewma, dev, last, replies := ds.rttEWMA, ds.rttVar, ds.lastReply, s.e.Stats().RepliesRcvd
			s.now += time.Millisecond
			s.reply(ring[1].seq)
			s.reply(ring[0].seq)
			if ds.rttEWMA != ewma || ds.rttVar != dev || !ds.lastReply.Equal(last) || len(ds.probes) != len(ring)-4 {
				t.Error("a reply to an already-retired probe changed the destination's state")
			}
			if got := s.e.Stats().RepliesRcvd; got != replies+2 {
				t.Errorf("RepliesRcvd = %d, want %d", got, replies+2)
			}

			// The newest reply empties the ring.
			s.reply(ring[len(ring)-1].seq)
			if len(ds.probes) != 0 || len(s.e.owner) != 0 {
				t.Errorf("ring %+v, owner %d entries after the newest probe was answered", ds.probes, len(s.e.owner))
			}
			if s.count(EventDestDead) != 0 {
				t.Error("destination died while being answered")
			}
		})
	}
}

// TestLateReplyAfterDeathRevives: probes stay outstanding past a death
// verdict, so a late reply to one marks the destination alive and wins
// the selection back.
func TestLateReplyAfterDeathRevives(t *testing.T) {
	// PoP 2 is far enough behind that PoP 1 wins the selection back even
	// with the late reply's own round trip folded into its estimate.
	s := newProbeSim(t, 5*time.Millisecond, 0, 20300*time.Microsecond, 60300*time.Microsecond)
	s.run(400 * time.Millisecond)
	if sel, ok := s.e.Selected(); !ok || sel.PoP != 1 {
		t.Fatalf("selected %+v ok=%v before the cut, want PoP 1", sel, ok)
	}
	a := s.dest(1)
	s.drop = func(p sentProbe) bool { return p.to == a.addr }
	s.runUntil(EventDestDead, 1, time.Second)
	if sel, ok := s.e.Selected(); !ok || sel.PoP != 2 {
		t.Fatalf("selected %+v ok=%v after PoP 1 died, want PoP 2", sel, ok)
	}
	if got := s.e.Stats().Failovers; got != 1 {
		t.Fatalf("Failovers = %d after one death, want 1", got)
	}
	s.run(40 * time.Millisecond) // recovery probes join the ring, the oldest ages out of nothing
	checkOwner(t, s.e)

	seen := len(s.events)
	s.reply(a.probes[0].seq) // the probe that condemned it answers after all
	var kinds []EventKind
	for _, ev := range s.events[seen:] {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == EventSelected && (ev.Dest.PoP != 1 || ev.Prev == nil || ev.Prev.PoP != 2) {
			t.Errorf("re-selection %+v, want PoP 1 taking over from PoP 2", ev)
		}
	}
	if len(kinds) != 2 || kinds[0] != EventDestAlive || kinds[1] != EventSelected {
		t.Fatalf("events after the late reply: %v, want [dest-alive selected]", kinds)
	}
	if !a.alive() || a.quarantined || a.deadProbes != 0 {
		t.Errorf("revived destination: alive=%v quarantined=%v deadProbes=%d", a.alive(), a.quarantined, a.deadProbes)
	}
	checkOwner(t, s.e)
}

// TestDeadDestinationRingIsBounded: recovery probing never stops, the
// outstanding set does.
func TestDeadDestinationRingIsBounded(t *testing.T) {
	s := newProbeSim(t, 5*time.Millisecond, 0, 20300*time.Microsecond)
	s.drop = func(sentProbe) bool { return true } // never answers: it starts dead and stays dead
	s.run(5 * time.Second)
	ds := s.dest(1)
	if len(ds.probes) != maxDeadOutstanding {
		t.Errorf("%d probes outstanding to a dead destination, want %d", len(ds.probes), maxDeadOutstanding)
	}
	if newest := ds.probes[len(ds.probes)-1].seq; newest != s.e.seq {
		t.Errorf("newest outstanding seq %d, last sent %d: the ring dropped the wrong end", newest, s.e.seq)
	}
	checkOwner(t, s.e)
}
