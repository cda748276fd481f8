package tm

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"painter/internal/obs"
	"painter/internal/obs/span"
	"painter/internal/tm/netio"
	"painter/internal/tmproto"
)

// EdgeConfig configures a TM-Edge.
type EdgeConfig struct {
	// Destinations is the initial tunnel destination set (addresses in
	// PAINTER prefixes plus the anycast destination). May be replaced at
	// runtime via ResolveFrom or SetDestinations.
	Destinations []tmproto.Destination
	// ProbeInterval is the cadence of probes to each live destination,
	// whether or not earlier ones were answered. Probes leave on a
	// ProbeInterval/4 tick, so consecutive sends are 1–1.25 intervals
	// apart.
	ProbeInterval time.Duration
	// FailureRTTMultiple: a live destination is declared dead once its
	// oldest unanswered probe was sent more than FailureRTTMultiple ×
	// smoothed RTT ago and no later probe has been answered. The clock
	// runs from that probe's send time, not from the last reply. Two
	// floors apply: MinFailureTimeout, and the send gap to the probe's
	// successor plus sRTT + 4·rttvar, so that one lost probe is never a
	// death: its successor always gets a full round trip. 1.3
	// reproduces the paper's detection times.
	FailureRTTMultiple float64
	MinFailureTimeout  time.Duration
	// SwitchHysteresisMs: switch the preferred destination only when the
	// challenger is better by this margin, preventing oscillation
	// (§3.2, avoiding oscillations). Used by the default LowestRTT
	// policy; ignored when Policy is set.
	SwitchHysteresisMs float64
	// BackoffFactor multiplies the recovery-probe interval after each
	// unanswered probe to a dead destination (exponential backoff), so a
	// withdrawn prefix is not hammered at the full probe rate. 2 when
	// unset.
	BackoffFactor float64
	// MaxBackoff caps the recovery-probe interval; 20×ProbeInterval when
	// unset. Recovery probing never stops — a destination that answers
	// again is immediately marked alive.
	MaxBackoff time.Duration
	// QuarantineAfter is how many consecutive unanswered recovery probes
	// move a dead destination into quarantine (probed only at MaxBackoff
	// cadence, EventDestQuarantined emitted). 3 when unset.
	QuarantineAfter int
	// JitterSeed seeds the deterministic backoff jitter (±15%), which
	// prevents synchronized recovery-probe bursts across destinations.
	JitterSeed int64
	// Policy chooses among alive destinations; nil means
	// LowestRTT{HysteresisMs: SwitchHysteresisMs}.
	Policy SelectionPolicy
	// OnReturn receives decapsulated return traffic for client flows.
	OnReturn func(flow tmproto.FlowKey, payload []byte)
	// OnEvent, if set, receives state-change events (selection changes,
	// destination death/recovery).
	OnEvent func(Event)
	// Obs, when non-nil, receives edge metrics (probe RTT and failover
	// detection histograms, activity counters); nil keeps them in a
	// private registry. Stats reads these counters, so each edge needs
	// a registry of its own.
	Obs *obs.Registry
	// Tracer, when non-nil, records causal spans: per-probe round trips
	// (with trace context carried on the wire so the PoP's reply side
	// stitches in) and failover chains — silent probe → dead detection
	// → re-selection → flow re-pin, with the re-pinned data packet
	// carrying the trace so the PoP's flow re-home joins the same
	// trace. Nil disables tracing at one-branch cost.
	Tracer *span.Tracer

	// Sockets is the SO_REUSEPORT socket count for the tunnel datapath
	// (0 ⇒ one per CPU, capped; see netio.Config).
	Sockets int
	// Batch is the max datagrams per syscall (0 ⇒ 32; 1 forces the
	// portable single-packet path).
	Batch int
}

// DefaultEdgeConfig returns production-shaped defaults (timers scaled
// down in tests).
func DefaultEdgeConfig() EdgeConfig {
	return EdgeConfig{
		ProbeInterval:      50 * time.Millisecond,
		FailureRTTMultiple: 1.3,
		MinFailureTimeout:  20 * time.Millisecond,
		SwitchHysteresisMs: 2,
		BackoffFactor:      2,
		QuarantineAfter:    3,
	}
}

// EventKind discriminates edge events.
type EventKind uint8

// Event kinds.
const (
	EventSelected EventKind = iota + 1
	EventDestDead
	EventDestAlive
	// EventDestQuarantined: a dead destination's recovery probes have
	// gone unanswered QuarantineAfter times; probing continues only at
	// the MaxBackoff cadence until it answers again.
	EventDestQuarantined
)

func (k EventKind) String() string {
	switch k {
	case EventSelected:
		return "selected"
	case EventDestDead:
		return "dest-dead"
	case EventDestAlive:
		return "dest-alive"
	case EventDestQuarantined:
		return "dest-quarantined"
	default:
		return "event"
	}
}

// Event is one edge state change.
type Event struct {
	Kind EventKind
	Dest tmproto.Destination
	// Prev is the previously selected destination for EventSelected.
	Prev *tmproto.Destination
	At   time.Time
	// SinceLastReply, for EventDestDead, is how long the destination had
	// been silent when declared dead (the detection latency).
	SinceLastReply time.Duration
	RTT            time.Duration
	// Trace is the failover trace context in scope when the event was
	// emitted (zero when untraced), letting log lines carry trace IDs
	// that join the flight-recorder export.
	Trace span.Context
}

// destState is the edge's view of one tunnel destination. The fields
// read on the Send fast path (aliveFlag, removed, addr, gre, greKey)
// are immutable or atomic so pinned flows tunnel without taking e.mu;
// everything else is guarded by e.mu.
type destState struct {
	dest   tmproto.Destination
	key    string // destKey(dest), the e.dests key, formatted once
	addr   netip.AddrPort
	gre    bool
	greKey uint32

	aliveFlag atomic.Bool
	// removed marks a destState dropped by SetDestinations; flows still
	// pinned to it re-pin on their next send.
	removed atomic.Bool

	rttEWMA     float64 // ms, guarded by e.mu
	rttVar      float64 // ms, Jacobson mean deviation of the RTT samples
	lastReply   time.Time
	lastProbe   time.Time
	everReplied bool
	// probes are the outstanding probes in send order, oldest first. A
	// reply retires its probe and every older one; what is left at the
	// head is the oldest probe no later evidence of life supersedes,
	// and its send time is what failure detection runs from.
	probes []probeRecord

	// Dead-destination recovery probing (exponential backoff).
	deadProbes   int       // unanswered probes since declared dead
	nextRecovery time.Time // when the next recovery probe is due
	quarantined  bool
}

func (ds *destState) alive() bool     { return ds.aliveFlag.Load() }
func (ds *destState) setAlive(v bool) { ds.aliveFlag.Store(v) }

// rtt is the smoothed RTT as a duration. Caller holds e.mu.
func (ds *destState) rtt() time.Duration { return msDuration(ds.rttEWMA) }

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
func durationMs(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// probeRecord is one outstanding probe: its sequence number and when
// it left, recorded with the local monotonic clock. RTT is computed
// from sentAt, never from the wall-clock timestamp echoed on the wire —
// a stepped clock (NTP correction) must not corrupt the RTT EWMA or
// discard live replies.
type probeRecord struct {
	seq    uint32
	sentAt time.Time
	span   *span.Span // the probe's open span; nil when untraced
}

// maxDeadOutstanding bounds a dead destination's outstanding probes: a
// live one holds at most a failure timeout's worth and is then declared
// dead, but recovery probing never stops, so only the newest few stay
// attributable.
const maxDeadOutstanding = 16

// Edge is a running TM-Edge.
type Edge struct {
	cfg   EdgeConfig
	group *netio.Group
	// out is the socket used for originated traffic (probes, data).
	// Replies arrive on whichever group socket the kernel hashes them to.
	out netio.Conn

	mu       sync.Mutex
	dests    map[string]*destState // keyed by addr string
	selected string                // addr of current best destination
	// lastSelected remembers the previous selection even after its
	// destination died, so failovers triggered by death are attributed.
	lastSelected *destState
	seq          uint32
	// owner maps each outstanding probe's sequence number to its
	// destination: exactly the sequences in the destinations' probes.
	owner map[uint32]*destState

	// failover is the open root span of the failover in progress (dead
	// detection through flow re-pin); nil when none. Guarded by mu.
	failover *span.Span

	// flows pins each flow to its destination, striped by flow-key hash
	// so concurrent senders don't serialize on e.mu.
	flows *flowMap[*destState]

	greSeq atomic.Uint32

	wg     sync.WaitGroup
	closed chan struct{}

	m edgeMetrics
}

// EdgeStats counts edge activity.
type EdgeStats struct {
	ProbesSent, RepliesRcvd uint64
	DataSent, DataRcvd      uint64
	Failovers               uint64
	RepinnedFlows           uint64
	// SendErrors counts tunnel datagrams (probes and data) whose socket
	// write failed. Failed probe sends do NOT count toward ProbesSent —
	// otherwise a blackout detector gated on probes-sent would read a
	// broken socket as "probing fine, replies absent".
	SendErrors uint64
}

// NewEdge starts a TM-Edge with the given configuration.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	cfg = cfg.withDefaults()
	group, err := netio.Listen("127.0.0.1:0", netio.Config{Sockets: cfg.Sockets, Batch: cfg.Batch})
	if err != nil {
		return nil, fmt.Errorf("tm: edge listen: %w", err)
	}
	e := newEdge(cfg, group.Conns()[0])
	e.group = group
	if err := e.SetDestinations(cfg.Destinations); err != nil {
		_ = group.Close()
		return nil, err
	}
	for _, c := range group.Conns() {
		e.wg.Add(1)
		go e.readLoop(c)
	}
	e.wg.Add(1)
	go e.probeLoop()
	return e, nil
}

func (cfg EdgeConfig) withDefaults() EdgeConfig {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	if cfg.FailureRTTMultiple <= 0 {
		cfg.FailureRTTMultiple = 1.3
	}
	if cfg.MinFailureTimeout <= 0 {
		cfg.MinFailureTimeout = 20 * time.Millisecond
	}
	if cfg.BackoffFactor <= 1 {
		cfg.BackoffFactor = 2
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 20 * cfg.ProbeInterval
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	return cfg
}

// newEdge builds the edge's state around the socket it originates
// traffic on and starts nothing: the probe state machine is then driven
// by probeRound and handleProbeReply alone, which is how the tests run
// it without sockets.
func newEdge(cfg EdgeConfig, out netio.Conn) *Edge {
	e := &Edge{
		cfg:    cfg,
		out:    out,
		dests:  make(map[string]*destState),
		owner:  make(map[uint32]*destState),
		flows:  newFlowMap[*destState](),
		closed: make(chan struct{}),
	}
	e.m = newEdgeMetrics(cfg.Obs, e)
	return e
}

// Addr returns the edge's local UDP address.
func (e *Edge) Addr() string { return e.group.Addr().String() }

// SetDestinations replaces the destination set. Existing flows pinned to
// removed destinations are re-pinned on next send.
func (e *Edge) SetDestinations(dests []tmproto.Destination) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[string]bool, len(dests))
	for _, d := range dests {
		if !d.Addr.Is4() {
			return fmt.Errorf("tm: destination %v not IPv4", d.Addr)
		}
		key := destKey(d)
		seen[key] = true
		if _, ok := e.dests[key]; ok {
			continue
		}
		e.dests[key] = &destState{
			dest:   d,
			key:    key,
			addr:   netip.AddrPortFrom(d.Addr, d.Port),
			gre:    d.GRE,
			greKey: d.PoP,
		}
	}
	for key, ds := range e.dests {
		if !seen[key] {
			ds.removed.Store(true)
			e.retireLocked(ds, len(ds.probes), "lost")
			delete(e.dests, key)
			if e.selected == key {
				e.selected = ""
			}
		}
	}
	return nil
}

func destKey(d tmproto.Destination) string {
	return fmt.Sprintf("%s:%d", d.Addr, d.Port)
}

// ResolveFrom queries a TM-PoP for the destination set of a service and
// installs it. It blocks until a reply arrives or the timeout expires.
func (e *Edge) ResolveFrom(popAddr, service string, timeout time.Duration) error {
	req, err := tmproto.AppendResolve(nil, tmproto.Resolve{Service: service})
	if err != nil {
		return err
	}
	ua, err := net.ResolveUDPAddr("udp", popAddr)
	if err != nil {
		return err
	}
	// Use a dedicated socket so the reply is not interleaved with tunnel
	// traffic.
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Write(req); err != nil {
		return err
	}
	_ = c.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 64*1024)
	n, err := c.Read(buf)
	if err != nil {
		return fmt.Errorf("tm: resolve from %s: %w", popAddr, err)
	}
	rr, err := tmproto.ParseResolveReply(buf[:n])
	if err != nil {
		return err
	}
	return e.SetDestinations(rr.Destinations)
}

// Stats returns a snapshot.
func (e *Edge) Stats() EdgeStats {
	return EdgeStats{
		ProbesSent:    e.m.probesSent.Value(),
		RepliesRcvd:   e.m.repliesRcvd.Value(),
		DataSent:      e.m.dataSent.Value(),
		DataRcvd:      e.m.dataRcvd.Value(),
		Failovers:     e.m.failovers.Value(),
		RepinnedFlows: e.m.repins.Value(),
		SendErrors:    e.m.sendErrors.Value(),
	}
}

// Close stops the edge.
func (e *Edge) Close() error {
	select {
	case <-e.closed:
		return nil
	default:
	}
	close(e.closed)
	err := e.group.Close()
	e.wg.Wait()
	e.mu.Lock()
	e.failover.Finish()
	e.failover = nil
	for _, ds := range e.dests {
		for _, r := range ds.probes {
			r.span.Finish()
		}
	}
	e.mu.Unlock()
	return err
}

// DestinationStatus is a point-in-time view of one destination.
type DestinationStatus struct {
	Dest     tmproto.Destination
	Alive    bool
	RTT      time.Duration
	Selected bool
}

// Status returns the current view of all destinations, sorted by
// address.
func (e *Edge) Status() []DestinationStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	states := make([]*destState, 0, len(e.dests))
	for _, ds := range e.dests {
		states = append(states, ds)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].key < states[j].key })
	out := make([]DestinationStatus, len(states))
	for i, ds := range states {
		out[i] = DestinationStatus{
			Dest:     ds.dest,
			Alive:    ds.alive(),
			RTT:      ds.rtt(),
			Selected: ds.key == e.selected,
		}
	}
	return out
}

// Selected returns the currently selected destination (ok=false when no
// destination is alive yet).
func (e *Edge) Selected() (tmproto.Destination, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ds, ok := e.dests[e.selected]
	if !ok {
		return tmproto.Destination{}, false
	}
	return ds.dest, true
}

// Send tunnels one client payload. The flow is pinned to the selected
// destination on first use and the mapping is immutable for the flow's
// lifetime (§3.2) — unless its destination has died, in which case the
// flow re-pins (connection state is lost, which the paper accepts in
// exchange for not building a handover system).
//
// The steady-state path — flow pinned, destination alive — touches only
// the flow stripe and the socket: no edge-wide lock.
func (e *Edge) Send(flow tmproto.FlowKey, payload []byte) error {
	if ds, ok := e.flows.Get(flow); ok && !ds.removed.Load() && ds.alive() {
		return e.sendData(ds, flow, payload, tmproto.TraceContext{})
	}
	return e.sendSlow(flow, payload)
}

// sendSlow pins (or re-pins) the flow under e.mu, then sends.
func (e *Edge) sendSlow(flow tmproto.FlowKey, payload []byte) error {
	var trace tmproto.TraceContext
	e.mu.Lock()
	ds, pinned := e.flows.Get(flow)
	if pinned && !ds.removed.Load() && ds.alive() {
		// Raced with another sender that already re-pinned.
		e.mu.Unlock()
		return e.sendData(ds, flow, payload, tmproto.TraceContext{})
	}
	sel := e.dests[e.selected]
	if sel == nil || !sel.alive() {
		// Fall back to any alive destination.
		sel = nil
		for _, cand := range e.sortedDestsLocked() {
			if cand.alive() {
				sel = cand
				break
			}
		}
	}
	if sel == nil {
		e.mu.Unlock()
		return fmt.Errorf("tm: no alive destination")
	}
	if pinned {
		e.m.repins.Inc()
		// The re-pin concludes the open failover chain. The data
		// packet carries the re-pin span's context so the PoP's
		// Known Flows re-home records into the same trace.
		if e.failover != nil {
			rp := e.failover.StartChild("tm.edge.repin",
				span.A("flow", flow.String()),
				span.A("dest", sel.key))
			trace = tmproto.TraceContext(rp.Context())
			rp.Finish()
			e.failover.Finish()
			e.failover = nil
		}
	}
	e.flows.Set(flow, sel)
	e.mu.Unlock()
	return e.sendData(sel, flow, payload, trace)
}

// sendData encapsulates and writes one data packet in the destination's
// wire mode.
func (e *Edge) sendData(ds *destState, flow tmproto.FlowKey, payload []byte, trace tmproto.TraceContext) error {
	out, err := tmproto.AppendData(nil, tmproto.Data{Flow: flow, Payload: payload, Trace: trace})
	if err != nil {
		return err
	}
	if ds.gre {
		out = tmproto.AppendGRE(make([]byte, 0, tmproto.GREOverhead+len(out)), ds.greKey, e.greSeq.Add(1), out)
	}
	if _, err := e.out.WriteBatch([]netio.Message{{Buf: out, N: len(out), Addr: ds.addr}}); err != nil {
		e.m.sendErrors.Inc()
		return err
	}
	e.m.dataSent.Inc()
	return nil
}

// sortedDestsLocked returns destinations ordered by (rtt, key) with
// never-probed ones last. Caller holds e.mu.
func (e *Edge) sortedDestsLocked() []*destState {
	out := make([]*destState, 0, len(e.dests))
	for _, ds := range e.dests {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].rttEWMA, out[j].rttEWMA
		if !out[i].everReplied {
			ri = math.Inf(1)
		}
		if !out[j].everReplied {
			rj = math.Inf(1)
		}
		if ri != rj {
			return ri < rj
		}
		return out[i].key < out[j].key
	})
	return out
}

// probeLoop drives per-destination probing and failure detection.
func (e *Edge) probeLoop() {
	defer e.wg.Done()
	tick := time.NewTicker(e.cfg.ProbeInterval / 4)
	defer tick.Stop()
	for {
		select {
		case <-e.closed:
			return
		case <-tick.C:
			// The round's clock is read when the round runs, not when the
			// ticker fired: it is stamped into the probes as their send
			// time, and a tick that waited for the processor would start
			// every RTT sample and failure deadline early.
			e.probeRound(time.Now())
		}
	}
}

// failureTimeout is how long a probe of ds, whose successor left gap
// after it, may stay unanswered before ds is declared dead:
//
//	max(FailureRTTMultiple·sRTT, MinFailureTimeout, gap + sRTT + 4·rttvar)
//
// The last term ends a round-trip estimate after the successor left, so
// a single lost probe, at any ratio of probe interval to RTT, leaves
// its successor time to answer.
func (e *Edge) failureTimeout(ds *destState, gap time.Duration) time.Duration {
	t := msDuration(e.cfg.FailureRTTMultiple * ds.rttEWMA)
	if t < e.cfg.MinFailureTimeout {
		t = e.cfg.MinFailureTimeout
	}
	if oneLoss := gap + msDuration(ds.rttEWMA+4*ds.rttVar); t < oneLoss {
		t = oneLoss
	}
	return t
}

// probeRound expires silent destinations and sends due probes; now is
// the send time of those probes.
func (e *Edge) probeRound(now time.Time) {
	var sends []netio.Message
	var events []Event

	e.mu.Lock()
	for _, ds := range e.dests {
		// Death check, keyed on the oldest outstanding probe: nothing
		// sent since has been answered (a reply retires every older
		// probe), so its age is how long the path has verifiably been
		// silent, counted from when the question was asked. The last
		// reply's arrival says nothing of the sort: replies already on
		// the return leg keep arriving for half an RTT after a path is
		// cut. Until the successor has left there is no gap to measure
		// and one probe's silence proves nothing.
		if ds.alive() && len(ds.probes) >= 2 {
			oldest := ds.probes[0]
			gap := ds.probes[1].sentAt.Sub(oldest.sentAt)
			if now.Sub(oldest.sentAt) > e.failureTimeout(ds, gap) {
				events = append(events, e.declareDeadLocked(ds, now))
			}
		}
		// Probes are pipelined at the probe interval regardless of
		// outstanding state: a lost probe must not silence the prober.
		// Unanswered probes stay outstanding past a death verdict, so a
		// late reply — e.g. from a destination whose true RTT exceeds
		// the timeout in force — still marks the destination alive.
		//
		// Dead destinations are probed on an exponential-backoff
		// schedule instead, so a withdrawn prefix is not hammered at the
		// full probe rate but recovery is still noticed (the probe that
		// finally answers marks it alive again).
		var due bool
		if ds.alive() {
			due = now.Sub(ds.lastProbe) >= e.cfg.ProbeInterval || ds.lastProbe.IsZero()
		} else {
			due = !now.Before(ds.nextRecovery)
		}
		if !due {
			continue
		}
		e.seq++
		seq := e.seq
		ds.lastProbe = now
		if !ds.alive() {
			if over := len(ds.probes) + 1 - maxDeadOutstanding; over > 0 {
				e.retireLocked(ds, over, "lost")
			}
			ds.deadProbes++
			backoff := e.backoffAfter(ds.deadProbes, seq)
			ds.nextRecovery = now.Add(backoff)
			if !ds.quarantined && ds.deadProbes >= e.cfg.QuarantineAfter {
				ds.quarantined = true
				events = append(events, Event{Kind: EventDestQuarantined, Dest: ds.dest, At: now})
			}
		}
		wp := tmproto.Probe{Seq: seq, SentUnixNano: now.UnixNano()}
		var ps *span.Span
		if e.cfg.Tracer != nil {
			// One (head-sampled) trace per probe round trip; the context
			// travels on the wire and comes back in the echoed reply, so
			// the PoP's handling stitches in.
			ps = e.cfg.Tracer.StartRoot("tm.edge.probe",
				span.A("dest", ds.key),
				span.A("seq", fmt.Sprint(seq)))
			wp.Trace = tmproto.TraceContext(ps.Context())
		}
		// The send time is recorded locally: RTT and the failure
		// deadline run on the monotonic clock, never on the wall-clock
		// timestamp echoed over the wire.
		ds.probes = append(ds.probes, probeRecord{seq: seq, sentAt: now, span: ps})
		e.owner[seq] = ds
		pkt := tmproto.AppendProbe(nil, wp, false)
		if ds.gre {
			pkt = tmproto.AppendGRE(make([]byte, 0, tmproto.GREOverhead+len(pkt)), ds.greKey, e.greSeq.Add(1), pkt)
		}
		sends = append(sends, netio.Message{Buf: pkt, N: len(pkt), Addr: ds.addr})
	}
	events = append(events, e.reselectLocked(now)...)
	e.mu.Unlock()

	e.writeProbes(sends)
	e.emit(events)
}

// declareDeadLocked marks a live destination dead on the evidence of
// its oldest outstanding probe and opens the failover trace. Caller
// holds e.mu.
func (e *Edge) declareDeadLocked(ds *destState, now time.Time) Event {
	oldest := ds.probes[0]
	unansweredMs := durationMs(now.Sub(oldest.sentAt))
	silent := now.Sub(ds.lastReply)
	ds.setAlive(false)
	ds.deadProbes = 0
	ds.quarantined = false
	ds.nextRecovery = now // first recovery probe goes out at once
	e.m.failoverDetectionMs.Observe(unansweredMs)
	// The unanswered probe's own span (a separate trace) ends here,
	// marked timed out; the probe itself stays outstanding.
	oldest.span.SetAttr("timeout", "true")
	oldest.span.Finish()
	// Open the failover trace: one root spanning dead detection
	// through re-selection and (if a pinned flow existed) the
	// re-pin whose data packet stitches the PoP's re-home in.
	e.failover.Finish() // a still-open previous chain ends now
	e.failover = e.cfg.Tracer.StartRoot("tm.edge.failover",
		span.A("dest", ds.key))
	silentMs := fmt.Sprintf("%.1f", durationMs(silent))
	probeSpan := e.failover.StartChild("tm.edge.probe",
		span.A("seq", fmt.Sprint(oldest.seq)),
		span.A("unanswered_ms", fmt.Sprintf("%.1f", unansweredMs)),
		span.A("silent_ms", silentMs))
	probeSpan.Finish()
	dead := e.failover.StartChild("tm.edge.dead",
		span.A("dest", ds.key),
		span.A("silent_ms", silentMs))
	dead.Finish()
	if e.selected == ds.key {
		e.selected = ""
	}
	return Event{
		Kind: EventDestDead, Dest: ds.dest, At: now,
		SinceLastReply: silent,
		RTT:            ds.rtt(),
		Trace:          e.failover.Context(),
	}
}

// retireLocked drops ds's n oldest outstanding probes. The span of a
// traced one that is still open ends marked with why, so an unanswered
// probe cannot leak its span. Caller holds e.mu.
func (e *Edge) retireLocked(ds *destState, n int, why string) {
	for _, r := range ds.probes[:n] {
		delete(e.owner, r.seq)
		r.span.SetAttr(why, "true")
		r.span.Finish()
	}
	ds.probes = ds.probes[n:]
}

// writeProbes flushes a probe batch, counting successes and failures
// separately: ProbesSent moves only for datagrams that actually left
// the socket, send failures land in SendErrors. A poisoned message is
// skipped and the rest of the batch still goes out.
func (e *Edge) writeProbes(sends []netio.Message) {
	for len(sends) > 0 {
		sent, err := e.out.WriteBatch(sends)
		if sent > 0 {
			e.m.probesSent.Add(uint64(sent))
		}
		if err == nil {
			return
		}
		e.m.sendErrors.Inc()
		sends = sends[sent+1:] // sends[sent] is the failed message
	}
}

// reselectLocked applies the selection policy over the alive
// destinations. Caller holds e.mu. Returns events to emit after unlock.
func (e *Edge) reselectLocked(now time.Time) []Event {
	var cands []DestinationStatus
	var states []*destState
	for _, ds := range e.sortedDestsLocked() {
		if ds.alive() && ds.everReplied {
			cands = append(cands, DestinationStatus{
				Dest:     ds.dest,
				Alive:    true,
				RTT:      ds.rtt(),
				Selected: ds.key == e.selected,
			})
			states = append(states, ds)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	incumbent := -1
	for i := range cands {
		if cands[i].Selected {
			incumbent = i
		}
	}
	policy := e.cfg.Policy
	if policy == nil {
		policy = LowestRTT{HysteresisMs: e.cfg.SwitchHysteresisMs}
	}
	sel := policy.Select(cands, incumbent)
	if sel < 0 || sel >= len(states) || sel == incumbent {
		return nil
	}
	best := states[sel]
	var prev *tmproto.Destination
	// Re-selecting the same destination (e.g. after a blip) is not a
	// failover.
	if last := e.lastSelected; last != nil && last.key != best.key {
		d := last.dest
		prev = &d
	}
	e.selected = best.key
	e.lastSelected = best
	if e.failover != nil {
		rs := e.failover.StartChild("tm.edge.reselect",
			span.A("dest", e.selected),
			span.A("rtt_ms", fmt.Sprintf("%.2f", best.rttEWMA)))
		rs.Finish()
	}
	if prev != nil {
		e.m.failovers.Inc()
	}
	return []Event{{
		Kind: EventSelected, Dest: best.dest, Prev: prev, At: now,
		RTT:   best.rtt(),
		Trace: e.failover.Context(),
	}}
}

// backoffAfter returns the recovery-probe interval after n consecutive
// unanswered probes to a dead destination: ProbeInterval ×
// BackoffFactor^n, capped at MaxBackoff, with deterministic ±15% jitter
// drawn from (JitterSeed, seq) so bursts don't synchronize across
// destinations but equal configurations reproduce equal schedules.
func (e *Edge) backoffAfter(n int, seq uint32) time.Duration {
	b := float64(e.cfg.ProbeInterval)
	for i := 0; i < n && b < float64(e.cfg.MaxBackoff); i++ {
		b *= e.cfg.BackoffFactor
	}
	if b > float64(e.cfg.MaxBackoff) {
		b = float64(e.cfg.MaxBackoff)
	}
	// splitmix64 over (seed, seq) → factor in [0.85, 1.15).
	z := uint64(e.cfg.JitterSeed)*0x9e3779b97f4a7c15 + uint64(seq)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	f := 0.85 + 0.3*float64(z>>11)/float64(1<<53)
	return time.Duration(b * f)
}

// seqBefore reports whether sequence s precedes cut in wraparound-safe
// serial-number arithmetic (RFC 1982 style): "before" means s is within
// half the sequence space behind cut, so the comparison stays correct
// when the uint32 counter wraps.
func seqBefore(s, cut uint32) bool { return int32(s-cut) < 0 }

func (e *Edge) emit(events []Event) {
	for _, ev := range events {
		if e.cfg.OnEvent != nil {
			e.cfg.OnEvent(ev)
		}
	}
}

// readLoop drains one group socket: probe replies and return data, in
// batches, unwrapping GRE frames when the peer mirrors that mode.
func (e *Edge) readLoop(conn netio.Conn) {
	defer e.wg.Done()
	ms := make([]netio.Message, e.group.Batch())
	for i := range ms {
		ms[i].Buf = make([]byte, netio.MaxDatagram)
	}
	for {
		n, err := conn.ReadBatch(ms)
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			b := ms[i].Buf[:ms[i].N]
			inner := b
			if tmproto.DetectMode(b) == tmproto.WireGRE {
				_, _, in, gerr := tmproto.ParseGRE(b)
				if gerr != nil {
					continue
				}
				inner = in
			}
			t, err := tmproto.PeekType(inner)
			if err != nil {
				continue
			}
			switch t {
			case tmproto.TypeProbeReply:
				p, _, err := tmproto.ParseProbe(inner)
				if err != nil {
					continue
				}
				e.handleProbeReply(time.Now(), p)
			case tmproto.TypeData:
				d, err := tmproto.ParseData(inner)
				if err != nil {
					continue
				}
				e.m.dataRcvd.Inc()
				if e.cfg.OnReturn != nil {
					payload := append([]byte(nil), d.Payload...)
					e.cfg.OnReturn(d.Flow, payload)
				}
			}
		}
	}
}

// handleProbeReply attributes a reply, received at now, to its
// outstanding probe and retires that probe and every older one of the
// same destination: later evidence of life supersedes earlier silence.
// RTT is now minus the locally recorded send time — monotonic, so a
// wall clock stepped forward cannot inflate the EWMA and one stepped
// backward cannot make a live reply look like it arrived before it was
// sent (which previously discarded the reply and left the destination
// awaiting, to be declared dead while answering every probe). A reply
// whose probe is no longer outstanding — retired by a later reply, or
// aged out of a dead destination's ring — is counted and otherwise
// ignored.
func (e *Edge) handleProbeReply(now time.Time, p tmproto.Probe) {
	var events []Event
	e.mu.Lock()
	ds := e.owner[p.Seq]
	var rttMs float64
	if ds != nil {
		// Probes are in send order, so everything up to and including
		// p.Seq is a prefix of the ring; owner guarantees p.Seq is in it.
		n := 0
		for n < len(ds.probes) && !seqBefore(p.Seq, ds.probes[n].seq) {
			n++
		}
		rec := ds.probes[n-1]
		rttMs = durationMs(now.Sub(rec.sentAt))
		if rttMs < 0 {
			rttMs = 0 // monotonic time never goes back; defensive only
		}
		if rec.span != nil {
			rec.span.SetAttr("rtt_ms", fmt.Sprintf("%.2f", rttMs))
			rec.span.Finish()
		}
		e.retireLocked(ds, n, "superseded")

		ds.lastReply = now
		if !ds.everReplied {
			// RFC 6298's first sample: the deviation starts wide and
			// narrows as samples agree.
			ds.rttEWMA, ds.rttVar = rttMs, rttMs/2
			ds.everReplied = true
		} else {
			const alpha, beta = 0.3, 0.25
			ds.rttVar = (1-beta)*ds.rttVar + beta*math.Abs(ds.rttEWMA-rttMs)
			ds.rttEWMA = (1-alpha)*ds.rttEWMA + alpha*rttMs
		}
		if !ds.alive() {
			ds.setAlive(true)
			ds.deadProbes = 0
			ds.quarantined = false
			ds.nextRecovery = time.Time{}
			events = append(events, Event{Kind: EventDestAlive, Dest: ds.dest, At: now, RTT: ds.rtt()})
		}
		events = append(events, e.reselectLocked(now)...)
	}
	e.mu.Unlock()
	e.m.repliesRcvd.Inc()
	if ds != nil {
		e.m.probeRTTMs.Observe(rttMs)
	}
	e.emit(events)
}
