package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/netsim"
	"painter/internal/netsim/emul"
	"painter/internal/obs/span"
	"painter/internal/routeserver"
	"painter/internal/tm"
	"painter/internal/tmproto"
)

// fault-loop wires Fig. 4 and Fig. 10 together by hand, the way
// experiments/integration_test.go does, and times it: a simulated world
// under a core.Controller, a route server fed over a real BGP session,
// three TM-PoPs behind delay links each standing for one world PoP, and
// one TM-Edge carrying pinned flows.

const (
	faultTrialTimeout = 3 * time.Second
	// streamEvery is the cadence of the client stream whose first echo
	// from a surviving PoP ends the failover clock.
	streamEvery = time.Millisecond
	// pinMark is the sequence number of packets sent only to pin a flow.
	pinMark = math.MaxUint32
	// pinAttempts is how many fresh batches of flows a trial may pin
	// before it gives up on getting one wholly onto the victim.
	pinAttempts = 3
	// pinSettle lets the echoes of a pinning burst clear the links, so
	// that the probe RTTs the trial starts from are undisturbed.
	pinSettle = 60 * time.Millisecond
)

// popEcho is the PoPs' service: echo the payload and say which PoP did.
type popEcho struct{ id byte }

func (s popEcho) Handle(_ tmproto.FlowKey, payload []byte, reply func([]byte) error) {
	out := make([]byte, len(payload)+1)
	copy(out, payload)
	out[len(payload)] = s.id
	_ = reply(out)
}

// echoMsg is one verified echo as the edge's return path saw it.
type echoMsg struct {
	trial, seq uint32
	sentNs     int64
	pop        byte
	at         time.Time
}

type faultRig struct {
	t     *tracing
	sz    sizing
	epoch time.Time

	wd   *world
	ctrl *core.Controller

	rs        *routeserver.Server
	speaker   *bgp.Speaker
	installed core.Config
	updates   int
	withdraws int

	pops     []*tm.PoP
	links    []*emul.Link
	dests    []tmproto.Destination
	worldPoP []cloud.PoPID
	pushed   []tmproto.Destination

	edge    *tm.Edge
	events  chan tm.Event
	echoes  chan echoMsg
	corrupt atomic.Int64
	// pinEchoes counts, per TM-PoP, the echoes of the packets that pin
	// the current batch of flows: the proof of where the batch is pinned.
	pinEchoes [4]atomic.Int64
	// pinTrial is the trial whose pinning echoes are being counted.
	pinTrial atomic.Uint32
	keys     []tmproto.FlowKey
	// batches counts the trial-flow batches handed out.
	batches int
}

func (r *faultRig) close() {
	if r.edge != nil {
		_ = r.edge.Close()
	}
	for _, l := range r.links {
		_ = l.Close()
	}
	for _, p := range r.pops {
		_ = p.Close()
	}
	if r.speaker != nil {
		_ = r.speaker.Close()
	}
	if r.rs != nil {
		_ = r.rs.Close()
	}
	if r.ctrl != nil {
		r.ctrl.Stop()
	}
}

// prefixOf is the /24 that stands for config prefix i on the wire.
func prefixOf(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 77, byte(i), 0}), 24)
}

// peeringsTag folds a prefix's peering set into the MED, so the route
// server's RIB entry changes exactly when the set does.
func peeringsTag(ps []bgp.IngressID) uint32 {
	h := fnv.New32a()
	var b [4]byte
	for _, p := range ps {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		_, _ = h.Write(b[:])
	}
	return h.Sum32()
}

// install announces and withdraws the difference between the installed
// configuration and cfg over the BGP session and waits until the route
// server's RIB holds exactly cfg.
func (r *faultRig) install(cfg core.Config) error {
	old, neu := r.installed.Prefixes, cfg.Prefixes
	var wd []netip.Prefix
	for i := len(neu); i < len(old); i++ {
		wd = append(wd, prefixOf(i))
	}
	if len(wd) > 0 {
		if err := r.speaker.SendUpdate(bgp.Update{Withdrawn: wd}); err != nil {
			return fmt.Errorf("withdraw: %w", err)
		}
		r.withdraws += len(wd)
	}
	for i, ps := range neu {
		if i < len(old) && peeringsTag(old[i]) == peeringsTag(ps) {
			continue
		}
		u := bgp.Update{
			Origin: bgp.OriginIGP, ASPath: []uint16{64500},
			NextHop: netip.MustParseAddr("192.0.2.1"),
			MED:     peeringsTag(ps), HasMED: true,
			NLRI: []netip.Prefix{prefixOf(i)},
		}
		if err := r.speaker.SendUpdate(u); err != nil {
			return fmt.Errorf("announce: %w", err)
		}
		r.updates++
	}
	r.installed = cfg.Clone()

	rib := r.rs.RIB()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if r.ribMatches(rib, cfg) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("route server RIB has %d prefixes, config has %d, after 2 s", rib.Size(), len(neu))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (r *faultRig) ribMatches(rib *bgp.RIB, cfg core.Config) bool {
	if rib.Size() != len(cfg.Prefixes) {
		return false
	}
	for i, ps := range cfg.Prefixes {
		e, ok := rib.Best(prefixOf(i))
		if !ok || e.MED != peeringsTag(ps) {
			return false
		}
	}
	return true
}

// liveDests is the destination set the configuration implies: every
// TM-PoP whose world PoP still has a live peering (the anycast prefix
// is announced at all of them).
func (r *faultRig) liveDests() []tmproto.Destination {
	var out []tmproto.Destination
	for k, pop := range r.worldPoP {
		if len(r.wd.w.LiveIngresses(r.wd.d.PeeringsAt(pop))) > 0 {
			out = append(out, r.dests[k])
		}
	}
	return out
}

// push hands every PoP the destination set.
func (r *faultRig) push(dests []tmproto.Destination) {
	for _, p := range r.pops {
		p.SetDestinations(dests)
	}
	r.pushed = dests
}

// resolve has the edge fetch the destination set over the wire from the
// first PoP that is still a destination, then checks what it holds.
func (r *faultRig) resolve() error {
	if len(r.pushed) == 0 {
		return fmt.Errorf("no destination left to resolve from")
	}
	via := r.pushed[0]
	addr := netip.AddrPortFrom(via.Addr, via.Port).String()
	if err := r.edge.ResolveFrom(addr, "bench", time.Second); err != nil {
		return err
	}
	want := map[uint32]bool{}
	for _, d := range r.pushed {
		want[d.PoP] = true
	}
	st := r.edge.Status()
	if len(st) != len(want) {
		return fmt.Errorf("edge holds %d destinations, %d were pushed", len(st), len(want))
	}
	for _, s := range st {
		if !want[s.Dest.PoP] {
			return fmt.Errorf("edge holds destination PoP %d, which was not pushed", s.Dest.PoP)
		}
	}
	return nil
}

// controlStages times one pass of the control path after an event.
type controlStages struct {
	applyUs, syncMs, installMs, pushMs, resolveMs float64
	fullSolve                                     bool
}

// control applies ev to the world and carries its consequences all the
// way to the edge: Sync, BGP install, destination push, edge resolve.
// pass prefixes the stage spans: "loop" for the fault, "recover" for
// the recovery.
func (r *faultRig) control(parent *span.Span, pass string, ev netsim.Event) (controlStages, error) {
	var c controlStages
	stage := func(name string, fn func() error) (time.Duration, error) {
		sp := r.t.start(parent, pass+"."+name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.Finish()
		return d, err
	}
	d, err := stage("apply_event", func() error { return r.wd.w.ApplyEvent(ev) })
	if err != nil {
		return c, fmt.Errorf("apply %s: %w", ev, err)
	}
	c.applyUs = us(d)
	var cfg core.Config
	d, err = stage("sync", func() error {
		var rep core.SyncReport
		var err error
		cfg, rep, err = r.ctrl.Sync()
		c.fullSolve = rep.FullSolve
		return err
	})
	if err != nil {
		return c, fmt.Errorf("sync: %w", err)
	}
	c.syncMs = ms(d)
	d, err = stage("bgp_install", func() error { return r.install(cfg) })
	if err != nil {
		return c, err
	}
	c.installMs = ms(d)
	if n := r.rs.RIB().Size(); n != len(cfg.Prefixes) {
		return c, fmt.Errorf("RIB holds %d prefixes, config %d", n, len(cfg.Prefixes))
	}
	d, _ = stage("push", func() error { r.push(r.liveDests()); return nil })
	c.pushMs = ms(d)
	d, err = stage("resolve", r.resolve)
	if err != nil {
		return c, fmt.Errorf("resolve: %w", err)
	}
	c.resolveMs = ms(d)
	return c, nil
}

func newFaultRig(rc *runCtx, t *tracing) (*faultRig, error) {
	sz := rc.sz
	r := &faultRig{t: t, sz: sz, epoch: time.Now(),
		events: make(chan tm.Event, 1024), // a trial's worth of edge events, read after the fact
		echoes: make(chan echoMsg, 1<<14)} // a trial's worth of stream echoes, read after the fact
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	setup := t.start(nil, "fault-loop.setup")
	defer setup.Finish()

	var err error
	if r.wd, err = buildWorld(t, setup, sz.Scale, worldSeed); err != nil {
		return nil, err
	}
	params := core.DefaultParams(sz.FaultBudget)
	params.Trace = t.tr
	sp := t.start(setup, "core.new_controller")
	r.ctrl, err = core.NewController(r.wd.w, r.wd.all, core.ControllerParams{Solver: params})
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	cfg := r.ctrl.Config()

	// The three world PoPs carrying the most configured peerings get a
	// TM-PoP: failing one of them is certain to dirty the configuration.
	count := map[cloud.PoPID]int{}
	for _, ps := range cfg.Prefixes {
		for _, id := range ps {
			if p, err := r.wd.d.PoPOfPeering(id); err == nil {
				count[p.ID]++
			}
		}
	}
	var ids []cloud.PoPID
	for id := range count {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if count[ids[a]] != count[ids[b]] {
			return count[ids[a]] > count[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if len(ids) < 3 {
		return nil, fmt.Errorf("configuration touches only %d PoPs, need 3", len(ids))
	}
	r.worldPoP = ids[:3]

	if r.rs, err = routeserver.New(routeserver.Config{
		ListenAddr: "127.0.0.1:0", LocalAS: 64999, BGPID: 1, HoldTime: 30 * time.Second, Tracer: t.tr,
	}); err != nil {
		return nil, fmt.Errorf("route server: %w", err)
	}
	conn, err := net.Dial("tcp", r.rs.Addr())
	if err != nil {
		return nil, err
	}
	r.speaker = bgp.NewSpeaker(conn, 64500, 2, 30*time.Second)
	if err := r.speaker.Handshake(); err != nil {
		return nil, err
	}
	go func() { _ = r.speaker.Run() }() // returns when close() closes the session
	if err := r.install(cfg); err != nil {
		return nil, err
	}

	for k := range r.worldPoP {
		pop, err := tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: uint32(k + 1),
			Service: popEcho{id: byte(k + 1)}, FlowTTL: 10 * time.Minute, Tracer: t.tr})
		if err != nil {
			return nil, err
		}
		r.pops = append(r.pops, pop)
		link, err := emul.NewLink(pop.Addr(), time.Duration(sz.FaultDelaysMs[k])*time.Millisecond, rc.seed+int64(k))
		if err != nil {
			return nil, err
		}
		r.links = append(r.links, link)
		ap, err := netip.ParseAddrPort(link.Addr())
		if err != nil {
			return nil, err
		}
		r.dests = append(r.dests, tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: uint32(k + 1)})
	}
	r.push(r.liveDests())

	ecfg := tm.DefaultEdgeConfig()
	ecfg.ProbeInterval = time.Duration(sz.FaultProbeMs) * time.Millisecond
	ecfg.JitterSeed = rc.seed
	ecfg.Tracer = t.tr
	ecfg.OnEvent = func(ev tm.Event) {
		select {
		case r.events <- ev:
		default:
		}
	}
	ecfg.OnReturn = func(_ tmproto.FlowKey, p []byte) {
		if len(p) != 17 {
			r.corrupt.Add(1)
			return
		}
		m := echoMsg{trial: binary.LittleEndian.Uint32(p[0:4]), seq: binary.LittleEndian.Uint32(p[4:8]),
			sentNs: int64(binary.LittleEndian.Uint64(p[8:16])), pop: p[16], at: time.Now()}
		if m.pop < 1 || int(m.pop) > len(r.pops) {
			r.corrupt.Add(1)
			return
		}
		if m.seq == pinMark {
			if m.trial == r.pinTrial.Load() {
				r.pinEchoes[m.pop].Add(1)
			}
			return
		}
		select {
		case r.echoes <- m:
		default:
		}
	}
	if r.edge, err = tm.NewEdge(ecfg); err != nil {
		return nil, err
	}
	if err := r.resolve(); err != nil {
		return nil, fmt.Errorf("bootstrap resolve: %w", err)
	}
	if err := r.awaitSelected(0); err != nil {
		return nil, err
	}
	r.keys = flowKeys(rc.seed, sz.FaultFlows+pinAttempts*sz.FaultTrials*sz.FaultTrialFlows)
	r.pin(r.keys[:sz.FaultFlows], math.MaxUint32)
	time.Sleep(4 * pinSettle)
	if err := r.awaitSelected(0); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

// awaitSelected waits until the edge holds every pushed destination
// alive and has settled on TM-PoP k.
func (r *faultRig) awaitSelected(k int) error {
	deadline := time.Now().Add(faultTrialTimeout)
	for {
		if d, ok := r.edge.Selected(); ok && d.PoP == uint32(k+1) {
			alive := 0
			for _, s := range r.edge.Status() {
				if s.Alive {
					alive++
				}
			}
			if alive == len(r.pushed) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			d, _ := r.edge.Selected()
			return fmt.Errorf("edge did not settle on PoP %d within %v (selected PoP %d)", k+1, faultTrialTimeout, d.PoP)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func (r *faultRig) packet(buf []byte, trial, seq uint32) []byte {
	binary.LittleEndian.PutUint32(buf[0:4], trial)
	binary.LittleEndian.PutUint32(buf[4:8], seq)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(time.Since(r.epoch)))
	return buf[:16]
}

// pin sends once on each flow, paced so the burst cannot starve the
// probes that share the links, which pins the flows to the current
// selection.
func (r *faultRig) pin(keys []tmproto.FlowKey, trial uint32) {
	buf := make([]byte, 16)
	for i, k := range keys {
		_ = r.edge.Send(k, r.packet(buf, trial, pinMark))
		if i%250 == 249 {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// setDelays makes TM-PoP best the lowest-delay destination and spreads
// the others over the remaining delays in index order.
func (r *faultRig) setDelays(best int) {
	rest := r.sz.FaultDelaysMs[1:]
	for k, l := range r.links {
		if k == best {
			l.SetDelay(time.Duration(r.sz.FaultDelaysMs[0]) * time.Millisecond)
			continue
		}
		l.SetDelay(time.Duration(rest[0]) * time.Millisecond)
		rest = rest[1:]
	}
}

// trialResult is one fault, repair, recovery cycle.
type trialResult struct {
	failoverMs, loopMs   float64
	detectMs, switchMs   float64
	firstEchoMs, repinUs float64
	fail, recoverC       controlStages
	recoverMs            float64
	falseFailovers       int
}

func (r *faultRig) drain() {
	for {
		select {
		case <-r.events:
		case <-r.echoes:
		default:
			return
		}
	}
}

// trial fails TM-PoP victim (its link and its world PoP together),
// times both paths, recovers, and steers the edge to next.
func (r *faultRig) trial(n, victim, next int) (trialResult, error) {
	var tr trialResult
	op := r.t.start(nil, "fault-loop.op", span.A("trial", fmt.Sprint(n)), span.A("victim", fmt.Sprint(victim+1)))
	defer op.Finish()

	// Pin a fresh batch of flows to the victim and prove it: every echo
	// of the pinning packets must come from the victim's PoP. A selection
	// that wandered while pinning (probe RTTs jitter by a few ms, the
	// hysteresis is 2) costs the batch, not the trial.
	var flows []tmproto.FlowKey
	for attempt := 0; ; attempt++ {
		if attempt == pinAttempts {
			return tr, fmt.Errorf("could not pin a batch of flows wholly to PoP %d in %d attempts", victim+1, pinAttempts)
		}
		if err := r.awaitSelected(victim); err != nil {
			return tr, err
		}
		r.pinTrial.Store(uint32(n))
		for k := range r.pinEchoes {
			r.pinEchoes[k].Store(0)
		}
		flows = r.keys[r.sz.FaultFlows+r.batches*r.sz.FaultTrialFlows:][:r.sz.FaultTrialFlows]
		r.batches++
		r.pin(flows, uint32(n))
		time.Sleep(pinSettle)
		elsewhere := int64(0)
		for k := range r.pinEchoes {
			if k != victim+1 {
				elsewhere += r.pinEchoes[k].Load()
			}
		}
		if d, ok := r.edge.Selected(); ok && d.PoP == uint32(victim+1) && elsewhere == 0 && r.pinEchoes[victim+1].Load() > 0 {
			break
		}
	}
	r.drain()
	failoversBefore := r.edge.Stats().Failovers

	// The client stream: one packet a millisecond, round-robin over the
	// trial's pinned flows, until told to stop.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		buf := make([]byte, 16)
		tick := time.NewTicker(streamEvery)
		defer tick.Stop()
		for seq := uint32(0); ; seq++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = r.edge.Send(flows[int(seq)%len(flows)], r.packet(buf, uint32(n), seq))
			}
		}
	}()
	stopStream := func() { close(stop); <-stopped }
	time.Sleep(3 * streamEvery)

	// The fault. The data path runs first and alone: the link goes down
	// and the edge has only its probes to find out.
	t0 := time.Now()
	t0Ns := int64(t0.Sub(r.epoch))
	r.links[victim].SetDown(true)
	var deadAt, selAt, echoAt time.Time
	deadline := time.After(faultTrialTimeout)
	for echoAt.IsZero() || selAt.IsZero() || deadAt.IsZero() {
		select {
		case ev := <-r.events:
			switch {
			case ev.Kind == tm.EventDestDead && ev.Dest.PoP == uint32(victim+1) && deadAt.IsZero():
				deadAt = ev.At
			case ev.Kind == tm.EventSelected && ev.Dest.PoP != uint32(victim+1) && selAt.IsZero():
				selAt = ev.At
			}
		case m := <-r.echoes:
			if m.trial == uint32(n) && m.sentNs >= t0Ns && int(m.pop) != victim+1 && echoAt.IsZero() {
				echoAt = m.at
			}
		case <-deadline:
			stopStream()
			return tr, fmt.Errorf("no verified echo from a surviving PoP within %v of the fault (dead %v, selected %v)",
				faultTrialTimeout, !deadAt.IsZero(), !selAt.IsZero())
		}
	}
	stopStream()
	tr.failoverMs = ms(echoAt.Sub(t0))
	tr.detectMs = ms(deadAt.Sub(t0))
	tr.switchMs = ms(selAt.Sub(deadAt))
	tr.firstEchoMs = ms(echoAt.Sub(selAt))

	// The control path learns of the same fault once traffic has moved
	// (see README: told at t0 it removes the destination before the
	// probes can declare it dead, and neither path is measured alone).
	c0 := time.Now()
	var err error
	tr.fail, err = r.control(op, "loop", netsim.Event{Kind: netsim.EventPoPDown, PoP: r.worldPoP[victim]})
	tr.loopMs = ms(time.Since(c0))
	if err != nil {
		return tr, err
	}

	if extra := int(r.edge.Stats().Failovers-failoversBefore) - 1; extra > 0 {
		tr.falseFailovers = extra
	}

	// Every flow still pinned to the dead destination re-pins on its next
	// send; time those sends over the whole trial population, paced like
	// the pinning was.
	buf := make([]byte, 16)
	rp := r.t.start(op, "tm.repin")
	var spent time.Duration
	for i, k := range flows {
		b0 := time.Now()
		_ = r.edge.Send(k, r.packet(buf, uint32(n), pinMark))
		spent += time.Since(b0)
		if i%250 == 249 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	tr.repinUs = us(spent) / float64(len(flows))
	rp.Finish()

	// Recover, reinstall, and steer the edge to the next victim.
	rsp := r.t.start(op, "loop.recover")
	r1 := time.Now()
	r.links[victim].SetDown(false)
	tr.recoverC, err = r.control(rsp, "recover", netsim.Event{Kind: netsim.EventPoPUp, PoP: r.worldPoP[victim]})
	tr.recoverMs = ms(time.Since(r1))
	rsp.Finish()
	if err != nil {
		return tr, fmt.Errorf("recover: %w", err)
	}
	r.setDelays(next)
	sb := r.t.start(op, "tm.switch_back")
	err = r.awaitSelected(next)
	sb.Finish()
	return tr, err
}

func runFaultLoop(rc *runCtx) error {
	res := rc.res
	trials := rc.sz.FaultTrials
	var overheadRef float64
	if rc.trace {
		// A quarter of the trials on an untraced rig first: the reference
		// for the tracing overhead.
		ref, err := newFaultRig(rc, &tracing{})
		if err != nil {
			return err
		}
		var loops []float64
		for n := 0; n < (trials+3)/4; n++ {
			tr, err := ref.trial(n, n%3, (n+1)%3)
			if err != nil {
				ref.close()
				return fmt.Errorf("untraced reference trial %d: %w", n, err)
			}
			loops = append(loops, tr.loopMs)
		}
		ref.close()
		overheadRef = median(loops)
		trials -= len(loops)
	}

	start := time.Now()
	rig, err := newFaultRig(rc, rc.t)
	if err != nil {
		return err
	}
	defer rig.close()
	setup := time.Since(start)

	var done []trialResult
	falseFailovers := 0
	phase := time.Now()
	for n := 0; n < trials; n++ {
		res.Attempted++
		tr, err := rig.trial(n, n%3, (n+1)%3)
		if err != nil {
			res.fail("trial %d (victim PoP %d): %v", n, n%3+1, err)
			// Put the rig back in a known state for the next trial.
			rig.links[n%3].SetDown(false)
			if rig.wd.w.IngressDown(rig.wd.d.PeeringsAt(rig.worldPoP[n%3])[0]) {
				_, _ = rig.control(nil, "recover", netsim.Event{Kind: netsim.EventPoPUp, PoP: rig.worldPoP[n%3]})
			}
			rig.setDelays((n + 1) % 3)
			if err := rig.awaitSelected((n + 1) % 3); err != nil {
				return fmt.Errorf("rig did not recover after failed trial %d: %w", n, err)
			}
			continue
		}
		falseFailovers += tr.falseFailovers
		done = append(done, tr)
	}
	wall := time.Since(phase)
	if c := rig.corrupt.Load(); c > 0 {
		res.violate("%d echoes came back malformed", c)
	}
	if len(done) == 0 {
		return fmt.Errorf("no trial completed")
	}

	ev, err := core.Evaluate(rig.wd.w, rig.wd.all, rig.ctrl.Config())
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	col := func(f func(trialResult) float64) []float64 {
		var out []float64
		for _, tr := range done {
			if v := f(tr); !math.IsNaN(v) {
				out = append(out, v)
			}
		}
		return out
	}
	failovers := col(func(t trialResult) float64 { return t.failoverMs })
	loops := col(func(t trialResult) float64 { return t.loopMs })
	tq, tv := tail(failovers)
	deadRTT := 2 * float64(rc.sz.FaultDelaysMs[0])
	res.Samples["failover_ms"], res.Samples["failover_tail_ms"], res.Samples["loop_ms"] = len(failovers), len(failovers), len(loops)
	res.Named["setup_s"] = setup.Seconds()
	res.Named["failover_ms"] = median(failovers)
	res.Named["failover_tail_ms"] = tv
	res.Named["failover_rtts"] = median(failovers) / deadRTT
	res.Named["loop_ms"] = median(loops)
	res.Named["trials_per_s"] = float64(len(done)) / wall.Seconds()
	res.Named["false_failovers"] = float64(falseFailovers)
	res.Named["benefit_frac"] = ev.FractionOfPossible()
	res.E2E["setup_s"] = res.Named["setup_s"]
	res.E2E["op_p50_ms"] = res.Named["failover_ms"]
	res.E2E["op_tail_ms"] = tv
	res.E2E["ops_per_s"] = res.Named["trials_per_s"]
	res.E2E["control_ms"] = res.Named["loop_ms"]
	res.E2E["quality_frac"] = res.Named["benefit_frac"]
	detects := col(func(t trialResult) float64 { return t.detectMs })
	res.note("%s scale, world seed %d, budget %d; TM-PoPs stand for world PoPs %v behind %v ms one-way links; probe interval %d ms; %d + %d x %d pinned flows",
		rc.sz.ScaleName, worldSeed, rc.sz.FaultBudget, rig.worldPoP, rc.sz.FaultDelaysMs, rc.sz.FaultProbeMs, rc.sz.FaultFlows, trials, rc.sz.FaultTrialFlows)
	res.note("failover tail is p%.0f of %d trials; failover is %.2f x the dead path's %.0f ms RTT, detection alone %.2f x (paper: about 1.3)",
		100*tq, len(failovers), res.Named["failover_rtts"], deadRTT, median(detects)/deadRTT)

	if !rc.trace {
		return nil
	}
	L := res.Layer
	if overheadRef > 0 {
		L["proc.trace_overhead_pct"] = 100 * (median(loops)/overheadRef - 1)
	}
	L["tm.detect_ms"] = median(detects)
	L["tm.switch_ms"] = median(col(func(t trialResult) float64 { return t.switchMs }))
	L["tm.first_echo_ms"] = median(col(func(t trialResult) float64 { return t.firstEchoMs }))
	L["tm.repin_us"] = median(col(func(t trialResult) float64 { return t.repinUs }))
	full := 0
	L["tm.false_failovers"] = float64(falseFailovers)
	for _, tr := range done {
		if tr.fail.fullSolve {
			full++
		}
		if tr.recoverC.fullSolve {
			full++
		}
	}
	L["loop.full_solve_share"] = float64(full) / float64(2*len(done))
	L["loop.updates_sent"] = float64(rig.updates)
	L["loop.withdraws_sent"] = float64(rig.withdraws)
	es := rig.edge.Stats()
	L["tm.edge_send_errors"] = float64(es.SendErrors)
	L["tm.probes_sent"] = float64(es.ProbesSent)
	if es.ProbesSent > 0 {
		L["tm.probe_reply_share"] = float64(es.RepliesRcvd) / float64(es.ProbesSent)
	}
	var dropped uint64
	var active int
	for _, p := range rig.pops {
		s := p.Stats()
		dropped += s.DroppedReplies
		active += s.ActiveFlows
	}
	L["tm.pop_dropped_replies"] = float64(dropped)
	L["tm.pop_active_flows"] = float64(active)

	// The stage sums the table is read against.
	tmSum := L["tm.detect_ms"] + L["tm.switch_ms"] + L["tm.first_echo_ms"]
	res.note("data-path stages sum to %.2f ms against failover_ms %.2f (%.0f %%)", tmSum, res.Named["failover_ms"], 100*tmSum/res.Named["failover_ms"])
	return nil
}

// faultLoopSpans fills the control-path stage rows from their spans.
func faultLoopSpans(L map[string]float64, st spanTimes) {
	setupLayerMetrics(L, st)
	L["loop.apply_event_us"] = st.medianUs("loop.apply_event")
	L["loop.sync_ms"] = st.medianMs("loop.sync")
	L["loop.bgp_install_ms"] = st.medianMs("loop.bgp_install")
	L["loop.push_ms"] = st.medianMs("loop.push")
	L["loop.resolve_ms"] = st.medianMs("loop.resolve")
	L["loop.recover_ms"] = st.medianMs("loop.recover")
}
