// Package tm implements the Traffic Manager (§3.2, §4, Appendix D):
// TM-PoP, the PoP-side tunnel terminator that decapsulates client
// traffic, NATs it through a Known Flows table, and returns service
// responses through the tunnel; and TM-Edge, the edge-proxy side that
// probes every available destination, pins flows to destinations, and
// fails over between prefixes at RTT timescales.
package tm

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"painter/internal/obs"
	"painter/internal/obs/span"
	"painter/internal/tm/netio"
	"painter/internal/tmproto"
)

// Service handles decapsulated client payloads at a PoP. Front-ends
// "terminate TCP connections" in the paper; here the service consumes a
// payload and may reply via the provided function (which routes back
// through the tunnel and NAT).
type Service interface {
	Handle(flow tmproto.FlowKey, payload []byte, reply func(payload []byte) error)
}

// EchoService replies with the payload it receives — the stand-in
// workload for prototype experiments.
type EchoService struct{}

// Handle implements Service.
func (EchoService) Handle(_ tmproto.FlowKey, payload []byte, reply func([]byte) error) {
	_ = reply(payload)
}

// PoPConfig configures a TM-PoP.
type PoPConfig struct {
	// ListenAddr is the UDP address to bind ("127.0.0.1:0" for tests).
	ListenAddr string
	// PoPID is read by nothing: resolve replies carry the PoP IDs of
	// Destinations. It remains only because the benchmark's rigs
	// (bench/) set it.
	PoPID uint32
	// Destinations is the destination set returned to TM-Edges asking to
	// resolve a service (the Advertisement Orchestrator installs this
	// via the control channel; cmd/painterd drives it over HTTP).
	Destinations []tmproto.Destination
	// Service handles client payloads; nil means EchoService.
	Service Service
	// FlowTTL is how long idle Known Flows entries are retained.
	FlowTTL time.Duration
	// Obs, when non-nil, receives PoP metrics (datagram counters and the
	// active-flows gauge); nil keeps them in a private registry. Stats
	// reads these counters, so each PoP needs a registry of its own.
	Obs *obs.Registry
	// Tracer, when non-nil, records PoP-side spans stitched into the
	// edge's traces via the wire trace context: probe handling joins
	// the probe's trace, and Known Flows re-homes join the failover
	// trace of the edge that re-pinned the flow.
	Tracer *span.Tracer

	// Sockets is the SO_REUSEPORT reader-socket count (0 ⇒ one per CPU,
	// capped; see netio.Config).
	Sockets int
	// Batch is the max datagrams per syscall (0 ⇒ 32; 1 forces the
	// portable single-packet path).
	Batch int
	// Workers is the service worker-pool size (0 ⇒ max(2, NumCPU)).
	// Service.Handle runs on these workers, never on the read loop, so a
	// slow service cannot stall probe replies.
	Workers int
}

// PoP is a running TM-PoP.
type PoP struct {
	cfg   PoPConfig
	group *netio.Group

	flows *flowMap[popFlow]

	destMu sync.Mutex
	dests  []tmproto.Destination

	work     chan popBatch
	replySeq atomic.Uint32

	readerWg sync.WaitGroup
	workerWg sync.WaitGroup
	purgeWg  sync.WaitGroup
	closed   chan struct{}

	m popMetrics
}

// PoPStats counts datagram handling.
type PoPStats struct {
	DataIn, DataOut uint64
	Probes          uint64
	Resolves        uint64
	ActiveFlows     int
	// Malformed counts undecodable or unknown-type datagrams.
	Malformed uint64
	// DroppedReplies counts service replies with no live flow entry.
	DroppedReplies uint64
	// OverloadWaits counts read batches that found the worker queue full
	// and had to wait — sustained growth means the service pool is the
	// bottleneck, not the datapath.
	OverloadWaits uint64
}

// popFlow is one Known Flows entry: the NAT state needed to send return
// traffic back through the right tunnel (Appendix D), plus the wire
// framing the edge used so replies mirror it.
type popFlow struct {
	edge     netip.AddrPort
	wire     tmproto.WireMode
	greKey   uint32
	lastSeen time.Time
}

// popBatch is one read batch's worth of service work, dispatched to the
// worker pool as a unit so channel operations amortize across the
// batch. Payloads are capped sub-slices of a shared arena.
type popBatch struct {
	conn netio.Conn
	jobs []popJob
}

type popJob struct {
	flow    tmproto.FlowKey
	payload []byte
}

// NewPoP binds and starts a TM-PoP.
func NewPoP(cfg PoPConfig) (*PoP, error) {
	if cfg.Service == nil {
		cfg.Service = EchoService{}
	}
	if cfg.FlowTTL <= 0 {
		cfg.FlowTTL = 5 * time.Minute
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
		if cfg.Workers < 2 {
			cfg.Workers = 2
		}
	}
	group, err := netio.Listen(cfg.ListenAddr, netio.Config{Sockets: cfg.Sockets, Batch: cfg.Batch})
	if err != nil {
		return nil, fmt.Errorf("tm: listen: %w", err)
	}
	p := &PoP{
		cfg:    cfg,
		group:  group,
		flows:  newFlowMap[popFlow](),
		dests:  append([]tmproto.Destination(nil), cfg.Destinations...),
		work:   make(chan popBatch, cfg.Workers*4),
		closed: make(chan struct{}),
	}
	p.m = newPoPMetrics(cfg.Obs, p)
	for _, c := range group.Conns() {
		p.readerWg.Add(1)
		go p.readLoop(c)
	}
	for i := 0; i < cfg.Workers; i++ {
		p.workerWg.Add(1)
		go p.worker()
	}
	p.purgeWg.Add(1)
	go p.purgeLoop()
	return p, nil
}

// Addr returns the bound UDP address.
func (p *PoP) Addr() string { return p.group.Addr().String() }

// SetDestinations atomically replaces the advertised destination set
// (what the Advertisement Orchestrator's "advertisement installation"
// step updates).
func (p *PoP) SetDestinations(d []tmproto.Destination) {
	p.destMu.Lock()
	p.dests = append([]tmproto.Destination(nil), d...)
	p.destMu.Unlock()
}

// Stats returns a snapshot of counters.
func (p *PoP) Stats() PoPStats {
	return PoPStats{
		DataIn:         p.m.dataIn.Value(),
		DataOut:        p.m.dataOut.Value(),
		Probes:         p.m.probes.Value(),
		Resolves:       p.m.resolves.Value(),
		Malformed:      p.m.malformed.Value(),
		ActiveFlows:    p.flows.Len(),
		DroppedReplies: p.m.dropped.Value(),
		OverloadWaits:  p.m.overloadWaits.Value(),
	}
}

// Close shuts the PoP down: sockets first (unblocking readers), then
// the worker pool once readers have stopped feeding it, then the purge
// ticker.
func (p *PoP) Close() error {
	select {
	case <-p.closed:
		return nil
	default:
	}
	close(p.closed)
	err := p.group.Close()
	p.readerWg.Wait()
	close(p.work)
	p.workerWg.Wait()
	p.purgeWg.Wait()
	return err
}

// purgeLoop evicts idle Known Flows entries on its own ticker, so
// expiry does not depend on packet arrival: a PoP whose traffic
// quiesces entirely still sheds state at FlowTTL (previously the check
// piggybacked on the read loop and idle flows lived forever on a quiet
// socket).
func (p *PoP) purgeLoop() {
	defer p.purgeWg.Done()
	ival := p.cfg.FlowTTL / 4
	if ival > time.Minute {
		ival = time.Minute
	}
	if ival < time.Millisecond {
		ival = time.Millisecond
	}
	t := time.NewTicker(ival)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return
		case now := <-t.C:
			p.purge(now)
		}
	}
}

// purge drops idle flows, one stripe at a time.
func (p *PoP) purge(now time.Time) {
	n := p.flows.sweep(func(_ tmproto.FlowKey, f popFlow) bool {
		return now.Sub(f.lastSeen) > p.cfg.FlowTTL
	})
	if n > 0 {
		p.m.purged.Add(uint64(n))
	}
}

// readLoop drains one socket in batches. Probes and resolves are
// answered inline (a probe reply is a type-byte flip inside the read
// buffer; mirrored GRE framing comes for free because the flip happens
// in place inside the frame) and flushed as one write batch; data
// packets update the Known Flows stripe and are handed to the worker
// pool, so Service.Handle never runs on this goroutine and cannot
// head-of-line-block probe replies.
func (p *PoP) readLoop(conn netio.Conn) {
	defer p.readerWg.Done()
	batch := p.group.Batch()
	ms := make([]netio.Message, batch)
	for i := range ms {
		ms[i].Buf = make([]byte, netio.MaxDatagram)
	}
	replies := make([]netio.Message, 0, batch)
	var arena []byte
	type pending struct {
		flow     tmproto.FlowKey
		off, end int
	}
	jobs := make([]pending, 0, batch)

	for {
		n, err := conn.ReadBatch(ms)
		if err != nil {
			return
		}
		now := time.Now()
		replies = replies[:0]
		jobs = jobs[:0]
		arena = nil
		dataK := uint64(0)

		for i := 0; i < n; i++ {
			m := &ms[i]
			b := m.Buf[:m.N]
			from := m.Addr
			if from.Addr().Is4In6() {
				from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
			}

			inner := b
			wire := tmproto.DetectMode(b)
			var greKey uint32
			if wire == tmproto.WireGRE {
				key, _, in, err := tmproto.ParseGRE(b)
				if err != nil {
					p.m.malformed.Inc()
					continue
				}
				inner, greKey = in, key
			}
			t, err := tmproto.PeekType(inner)
			if err != nil {
				p.m.malformed.Inc()
				continue
			}

			switch t {
			case tmproto.TypeProbe:
				p.m.probes.Inc()
				if p.cfg.Tracer != nil {
					// A traced probe carries its span context; record this
					// hop as a remote child so the edge's probe trace shows
					// the PoP touch. The reply (an in-place type flip)
					// echoes the context back untouched.
					if pr, _, err := tmproto.ParseProbe(inner); err == nil && pr.Trace.Valid() {
						s := p.cfg.Tracer.FromRemote(span.Context(pr.Trace), "tm.pop.probe",
							span.A("seq", fmt.Sprint(pr.Seq)),
							span.A("edge", from.String()))
						s.Finish()
					}
				}
				if _, err := tmproto.MakeReply(inner); err == nil {
					replies = append(replies, netio.Message{Buf: b, N: len(b), Addr: m.Addr})
				}

			case tmproto.TypeData:
				d, err := tmproto.ParseData(inner)
				if err != nil {
					p.m.malformed.Inc()
					continue
				}
				dataK++
				p.noteFlow(d, from, wire, greKey, now)
				off := len(arena)
				arena = append(arena, d.Payload...)
				jobs = append(jobs, pending{flow: d.Flow, off: off, end: len(arena)})

			case tmproto.TypeResolve:
				r, err := tmproto.ParseResolve(inner)
				if err != nil {
					p.m.malformed.Inc()
					continue
				}
				p.m.resolves.Inc()
				p.destMu.Lock()
				dests := append([]tmproto.Destination(nil), p.dests...)
				p.destMu.Unlock()
				out, err := tmproto.AppendResolveReply(nil, tmproto.ResolveReply{
					Service: r.Service, Destinations: dests,
				})
				if err == nil {
					if wire == tmproto.WireGRE {
						out = tmproto.AppendGRE(nil, greKey, p.replySeq.Add(1), out)
					}
					replies = append(replies, netio.Message{Buf: out, N: len(out), Addr: m.Addr})
				}

			default:
				p.m.malformed.Inc()
			}
		}

		// Data-packet counters amortize across the batch like the
		// syscalls do.
		if dataK > 0 {
			p.m.dataIn.Add(dataK)
		}

		// Probe/resolve replies go out before service dispatch — and
		// before the next ReadBatch reuses the buffers they point into.
		writeAll(conn, replies)

		if len(jobs) > 0 {
			pb := popBatch{conn: conn, jobs: make([]popJob, len(jobs))}
			for i, j := range jobs {
				// Three-index slice: a service that appends to its payload
				// must not scribble over its neighbor in the arena.
				pb.jobs[i] = popJob{flow: j.flow, payload: arena[j.off:j.end:j.end]}
			}
			select {
			case p.work <- pb:
			default:
				p.m.overloadWaits.Inc()
				p.work <- pb // backpressure, not loss
			}
		}
	}
}

// flowRefresh is the Known Flows lastSeen granularity: the hot path
// skips the stripe write while the entry is fresher than this. TTL
// purge tolerates seconds of staleness (FlowTTL is minutes); a moved
// or re-framed flow always takes the write path regardless.
const flowRefresh = time.Second

// noteFlow records/refreshes the Known Flows entry for a data packet
// and emits the re-home event when the flow arrived from a new edge.
func (p *PoP) noteFlow(d tmproto.Data, from netip.AddrPort, wire tmproto.WireMode, greKey uint32, now time.Time) {
	// Read-only fast path: a steady flow needs no state change, so the
	// common case costs one stripe read instead of a map write.
	if f, ok := p.flows.Get(d.Flow); ok &&
		f.edge == from && f.wire == wire && f.greKey == greKey &&
		now.Sub(f.lastSeen) < flowRefresh {
		return
	}
	var prev netip.AddrPort
	var had bool
	p.flows.Update(d.Flow, func(f popFlow, ok bool) (popFlow, bool) {
		if ok {
			prev, had = f.edge, true
		}
		return popFlow{edge: from, wire: wire, greKey: greKey, lastSeen: now}, true
	})
	// Graceful mid-flow failover: when the flow arrives from a new edge
	// address, its previous tunnel died (or the edge re-pinned); re-home
	// the NAT entry so return traffic follows the live tunnel.
	if had && prev != from {
		p.m.flowMoves.Inc()
		// A re-pinned data packet carries the edge failover trace; the
		// re-home is the PoP-side tail of that chain.
		if p.cfg.Tracer != nil && d.Trace.Valid() {
			s := p.cfg.Tracer.FromRemote(span.Context(d.Trace), "tm.pop.rehome",
				span.A("flow", d.Flow.String()),
				span.A("prev_edge", prev.String()),
				span.A("new_edge", from.String()))
			s.Finish()
		}
	}
}

// worker runs Service.Handle for dispatched batches. Replies issued
// during a batch are coalesced into write batches; replies issued later
// (an asynchronous service) fall back to immediate sends.
func (p *PoP) worker() {
	defer p.workerWg.Done()
	sink := &replySink{}
	for pb := range p.work {
		sink.reset(pb.conn)
		for _, j := range pb.jobs {
			flow := j.flow
			p.cfg.Service.Handle(flow, j.payload, func(resp []byte) error {
				return p.sendReply(sink, flow, resp)
			})
		}
		sink.finish()
	}
}

// sendReply re-encapsulates a service reply and sends it back through
// the tunnel to whichever edge most recently carried the flow, in the
// framing that edge last used (the NAT property that return traffic
// goes back through the tunnel, not directly to the client).
func (p *PoP) sendReply(sink *replySink, flow tmproto.FlowKey, resp []byte) error {
	f, ok := p.flows.Get(flow)
	if !ok {
		p.m.dropped.Inc()
		return fmt.Errorf("tm: flow %v no longer known", flow)
	}
	if err := sink.add(flow, resp, f, &p.replySeq); err != nil {
		return err
	}
	p.m.dataOut.Inc()
	return nil
}

// replySink batches reply sends for the duration of one dispatched job
// batch, encapsulating them into a reusable arena so the per-reply hot
// path allocates nothing. After finish(), late replies (from services
// that call reply asynchronously) are written through immediately with
// their own buffers; a worker reuses one sink across batches via
// reset(), which is safe because everything below is guarded by mu.
type replySink struct {
	mu      sync.Mutex
	conn    netio.Conn
	msgs    []netio.Message
	arena   []byte // backing for queued replies, reset per batch
	scratch []byte // inner-frame staging for GRE wrapping
	done    bool
}

// encap appends the reply's wire form to dst in the flow's framing.
func (rs *replySink) encap(dst []byte, flow tmproto.FlowKey, resp []byte, f popFlow, seq *atomic.Uint32) ([]byte, error) {
	if f.wire != tmproto.WireGRE {
		return tmproto.AppendData(dst, tmproto.Data{Flow: flow, Payload: resp})
	}
	inner, err := tmproto.AppendData(rs.scratch[:0], tmproto.Data{Flow: flow, Payload: resp})
	if err != nil {
		return dst, err
	}
	rs.scratch = inner
	return tmproto.AppendGRE(dst, f.greKey, seq.Add(1), inner), nil
}

func (rs *replySink) add(flow tmproto.FlowKey, resp []byte, f popFlow, seq *atomic.Uint32) error {
	rs.mu.Lock()
	if rs.done {
		out, err := rs.encap(nil, flow, resp, f, seq)
		conn := rs.conn
		rs.mu.Unlock()
		if err != nil {
			return err
		}
		_, werr := conn.WriteBatch([]netio.Message{{Buf: out, N: len(out), Addr: f.edge}})
		return werr
	}
	start := len(rs.arena)
	out, err := rs.encap(rs.arena, flow, resp, f, seq)
	if err != nil {
		rs.mu.Unlock()
		return err
	}
	rs.arena = out
	// Capped sub-slice: arena growth must reallocate rather than
	// scribble over a queued neighbor.
	msg := out[start:len(out):len(out)]
	rs.msgs = append(rs.msgs, netio.Message{Buf: msg, N: len(msg), Addr: f.edge})
	rs.mu.Unlock()
	return nil
}

func (rs *replySink) reset(conn netio.Conn) {
	rs.mu.Lock()
	rs.conn = conn
	rs.msgs = rs.msgs[:0]
	rs.arena = rs.arena[:0]
	rs.done = false
	rs.mu.Unlock()
}

func (rs *replySink) finish() {
	rs.mu.Lock()
	rs.done = true
	msgs := rs.msgs
	conn := rs.conn
	rs.mu.Unlock()
	// The flush happens on the worker goroutine before the next reset;
	// late adds see done and never touch msgs, so writing outside the
	// lock is safe.
	writeAll(conn, msgs)
}
