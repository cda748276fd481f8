package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"painter/internal/obs/span"
	"painter/internal/tm"
	"painter/internal/tm/netio"
	"painter/internal/tmproto"
)

// Echo payload: sequence number, then the time the packet was due (ns
// since the rig's epoch), then filler derived from the sequence number.
const echoHeader = 16

func fillPayload(buf []byte, seq uint64, dueNs int64) {
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(dueNs))
	for i := echoHeader; i < len(buf); i++ {
		buf[i] = byte(seq) + byte(i)
	}
}

// checkPayload verifies an echoed payload against its own sequence
// number; filler is sampled every 64th byte and at the end.
func checkPayload(p []byte, size int) (seq uint64, dueNs int64, ok bool) {
	if len(p) != size || size < echoHeader {
		return 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(p[0:8])
	dueNs = int64(binary.LittleEndian.Uint64(p[8:16]))
	for i := echoHeader; i < size; i += 64 {
		if p[i] != byte(seq)+byte(i) {
			return seq, dueNs, false
		}
	}
	if last := size - 1; last >= echoHeader && p[last] != byte(seq)+byte(last) {
		return seq, dueNs, false
	}
	return seq, dueNs, true
}

// flowKeys draws n distinct client flows from the run seed.
func flowKeys(seed int64, n int) []tmproto.FlowKey {
	rng := rand.New(rand.NewSource(seed))
	hi, port := byte(rng.Intn(200)), uint16(rng.Intn(20000))
	dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(1 + rng.Intn(250))})
	keys := make([]tmproto.FlowKey, n)
	for i := range keys {
		keys[i] = tmproto.FlowKey{
			Proto:   17,
			Src:     netip.AddrFrom4([4]byte{10, hi + byte(i>>16), byte(i >> 8), byte(i)}),
			Dst:     dst,
			SrcPort: port + uint16(i),
			DstPort: 443,
		}
	}
	return keys
}

// echoRig is one tm.PoP (EchoService) and one tm.Edge on loopback,
// default sockets, batch and wire mode.
type echoRig struct {
	pop   *tm.PoP
	edge  *tm.Edge
	dest  tmproto.Destination
	epoch time.Time
	// onReturn is the current phase's receive handler.
	onReturn atomic.Pointer[func(tmproto.FlowKey, []byte)]
	// falseDeaths counts EventDestDead: the one destination never dies.
	falseDeaths atomic.Int64
}

func (r *echoRig) close() {
	_ = r.edge.Close()
	_ = r.pop.Close()
}

// newEchoRig brings the pair up and waits for the edge's first
// selection; the time that takes is the workload's set-up.
func newEchoRig(t *tracing, seed int64) (*echoRig, time.Duration, error) {
	start := time.Now()
	sp := t.start(nil, "tm.setup")
	defer sp.Finish()
	r := &echoRig{epoch: start}
	pop, err := tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1, FlowTTL: 10 * time.Minute, Tracer: t.tr})
	if err != nil {
		return nil, 0, err
	}
	r.pop = pop
	ap, err := netip.ParseAddrPort(pop.Addr())
	if err != nil {
		_ = pop.Close()
		return nil, 0, err
	}
	r.dest = tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: 1}
	pop.SetDestinations([]tmproto.Destination{r.dest})

	selected := make(chan struct{}, 1) // one slot: only the first selection matters
	cfg := tm.DefaultEdgeConfig()
	cfg.Destinations = []tmproto.Destination{r.dest}
	cfg.JitterSeed = seed
	cfg.Tracer = t.tr
	// On loopback the default silence threshold is ProbeInterval + RTT,
	// 50.1 ms against replies that arrive every 50 ms: under saturation
	// ordinary scheduling jitter reads as a dead destination and, with
	// one destination, every send fails until the next reply. Five probe
	// intervals of silence is a death; each one is counted as false.
	cfg.MinFailureTimeout = 5 * cfg.ProbeInterval
	cfg.OnEvent = func(ev tm.Event) {
		switch ev.Kind {
		case tm.EventSelected:
			select {
			case selected <- struct{}{}:
			default:
			}
		case tm.EventDestDead:
			r.falseDeaths.Add(1)
		}
	}
	cfg.OnReturn = func(f tmproto.FlowKey, p []byte) {
		if h := r.onReturn.Load(); h != nil {
			(*h)(f, p)
		}
	}
	edge, err := tm.NewEdge(cfg)
	if err != nil {
		_ = pop.Close()
		return nil, 0, err
	}
	r.edge = edge
	select {
	case <-selected:
	case <-time.After(3 * time.Second):
		r.close()
		return nil, 0, fmt.Errorf("edge never selected the PoP")
	}
	return r, time.Since(start), nil
}

// phaseResult is what one echo phase counted.
type phaseResult struct {
	sent, sendErrs, verified, corrupt, lost int
	// onTime is how many verified echoes had arrived when the phase's
	// clock ran out; the rates are onTime over seconds.
	onTime  int
	seconds float64
	rttUs   []float64
	lateUs  []float64
	proc    procDelta
}

func (p phaseResult) failed() int { return p.sendErrs + p.corrupt + p.lost }

// add sums another rig's slice of the same phase into p.
func (p *phaseResult) add(o phaseResult) {
	p.sent, p.sendErrs, p.verified = p.sent+o.sent, p.sendErrs+o.sendErrs, p.verified+o.verified
	p.corrupt, p.lost, p.onTime = p.corrupt+o.corrupt, p.lost+o.lost, p.onTime+o.onTime
	p.seconds += o.seconds
	p.proc.mallocs, p.proc.cpu = p.proc.mallocs+o.proc.mallocs, p.proc.cpu+o.proc.cpu
}

// closedLoop keeps window round trips in flight for dur (or, with limit
// > 0, until limit sends have been made): a send waits
// for a free slot, an echo frees one. Echoes that never come back are
// written off after 200 ms without progress so the window cannot
// shrink for good.
func (r *echoRig) closedLoop(t *tracing, keys []tmproto.FlowKey, size, window int, dur time.Duration, limit int, seqBase uint64, sampleSends bool) phaseResult {
	var res phaseResult
	slots := make(chan struct{}, window) // counting semaphore: one slot per round trip in flight
	var verified, corrupt atomic.Int64
	handler := func(f tmproto.FlowKey, p []byte) {
		seq, _, ok := checkPayload(p, size)
		if ok && seq >= seqBase && f == keys[(seq-seqBase)%uint64(len(keys))] {
			verified.Add(1)
		} else {
			corrupt.Add(1)
		}
		select {
		case <-slots:
		default:
		}
	}
	r.onReturn.Store(&handler)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // write-off watchdog
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		last, lastAt := int64(0), time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				got := verified.Load() + corrupt.Load()
				if got != last {
					last, lastAt = got, now
					continue
				}
				if now.Sub(lastAt) < 200*time.Millisecond {
					continue
				}
				for n := len(slots); n > 0; n-- {
					select {
					case <-slots:
					default:
					}
				}
				lastAt = now
			}
		}
	}()

	op := t.start(nil, "tm-echo.closed_loop", span.A("bytes", fmt.Sprint(size)))
	buf := make([]byte, size)
	before := markProc()
	start := time.Now()
	deadline := start.Add(dur)
	for seq := seqBase; ; seq++ {
		if seq%32 == 0 && !time.Now().Before(deadline) || limit > 0 && res.sent >= limit {
			break
		}
		slots <- struct{}{}
		fillPayload(buf, seq, int64(time.Since(r.epoch)))
		var sp *span.Span
		if sampleSends && seq%64 == 0 {
			sp = t.start(op, "tm.edge_send")
		}
		err := r.edge.Send(keys[(seq-seqBase)%uint64(len(keys))], buf)
		sp.Finish()
		res.sent++
		if err != nil {
			res.sendErrs++
			<-slots
		}
	}
	res.onTime = int(verified.Load())
	res.seconds = time.Since(start).Seconds()
	res.proc = before.until(markProc())
	op.Finish()

	// Let what is in flight land, then stop counting.
	for wait := time.Now(); len(slots) > 0 && time.Since(wait) < 300*time.Millisecond; {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	r.onReturn.Store(nil)
	res.verified, res.corrupt = int(verified.Load()), int(corrupt.Load())
	res.lost = res.sent - res.sendErrs - res.verified - res.corrupt
	if res.lost < 0 {
		res.lost = 0
	}
	return res
}

// openLoopPhase offers rate round trips per second for dur whatever
// comes back, and times each from the instant it was due.
func (r *echoRig) openLoopPhase(t *tracing, keys []tmproto.FlowKey, size int, rate float64, dur time.Duration, seqBase uint64) phaseResult {
	var res phaseResult
	n := int(rate * dur.Seconds())
	rtt := make([]int64, n) // ns from due to echo; 0 = not back yet
	var corrupt atomic.Int64
	handler := func(f tmproto.FlowKey, p []byte) {
		now := int64(time.Since(r.epoch))
		seq, dueNs, ok := checkPayload(p, size)
		i := seq - seqBase
		if !ok || seq < seqBase || i >= uint64(n) || f != keys[i%uint64(len(keys))] {
			corrupt.Add(1)
			return
		}
		d := now - dueNs
		if d < 1 {
			d = 1
		}
		atomic.StoreInt64(&rtt[i], d)
	}
	r.onReturn.Store(&handler)

	op := t.start(nil, "tm-echo.open_loop", span.A("rate", fmt.Sprint(rate)))
	buf := make([]byte, size)
	// The generator keeps its own OS thread, so that its wake-ups do not
	// queue behind the edge's and the PoP's goroutines.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now().Add(time.Millisecond)
	ol := newOpenLoop(start, rate)
	for next := 0; next < n; {
		now := time.Now()
		k := ol.dueBy(now)
		if k > n {
			k = n
		}
		for ; next < k; next++ {
			at := time.Now()
			ol.sent(next, at)
			fillPayload(buf, seqBase+uint64(next), int64(ol.due(next).Sub(r.epoch)))
			res.sent++
			if err := r.edge.Send(keys[next%len(keys)], buf); err != nil {
				res.sendErrs++
			}
		}
		if next < n {
			if d := time.Until(ol.due(next)); d > 0 {
				time.Sleep(d)
			}
		}
	}
	res.seconds = time.Since(start).Seconds()
	op.Finish()
	time.Sleep(100 * time.Millisecond) // stragglers
	r.onReturn.Store(nil)

	res.lateUs = ol.lateUs
	res.corrupt = int(corrupt.Load())
	for i := range rtt {
		if d := atomic.LoadInt64(&rtt[i]); d > 0 {
			res.rttUs = append(res.rttUs, float64(d)/1e3)
		}
	}
	res.verified = len(res.rttUs)
	res.onTime = res.verified
	res.lost = res.sent - res.sendErrs - res.verified - res.corrupt
	if res.lost < 0 {
		res.lost = 0
	}
	return res
}

// resolveLatency times the data plane's one control operation: the PoP
// is handed a destination set and the edge resolves it over the wire.
func (r *echoRig) resolveLatency(t *tracing, n int) ([]float64, error) {
	op := t.start(nil, "tm-echo.resolve")
	defer op.Finish()
	out := make([]float64, 0, n)
	// The first tenth only wakes the path up: an idle core's first
	// wake-ups are several times slower than the rest.
	for i := -n / 10; i < n; i++ {
		t0 := time.Now()
		r.pop.SetDestinations([]tmproto.Destination{r.dest})
		if err := r.edge.ResolveFrom(r.pop.Addr(), "bench", time.Second); err != nil {
			return nil, fmt.Errorf("resolve: %w", err)
		}
		if i >= 0 {
			out = append(out, ms(time.Since(t0)))
		}
	}
	return out, nil
}

func runTMEcho(rc *runCtx) error {
	res := rc.res
	sz := rc.sz
	keys := flowKeys(rc.seed, sz.EchoFlows)
	phase := time.Duration(sz.EchoPhaseSec * float64(time.Second))
	if rc.trace {
		phase /= 2 // room for the untraced reference phase and the raw-PoP probe
	}

	var overhead float64
	if rc.trace {
		ref, _, err := newEchoRig(&tracing{}, rc.seed)
		if err != nil {
			return err
		}
		a := ref.closedLoop(&tracing{}, keys, sz.EchoSmallB, sz.EchoWindow, phase/2, 0, 1, false)
		ref.close()
		if a.onTime == 0 {
			return fmt.Errorf("untraced reference phase delivered nothing")
		}
		overhead = float64(a.onTime) / a.seconds // finished below, against the traced rate
	}

	// Five rigs, each a fresh pair of sockets, and a slice of every phase
	// on each. Which of the group's sockets the kernel hashes the return
	// traffic to is drawn anew with the ports, and it moves throughput by
	// several percent, as does which core a reader wakes on; the reported
	// figures are mid-means over the rigs (the lowest and the highest
	// rig dropped), so one unlucky draw is not the run.
	slice := phase / time.Duration(sz.EchoSetups)
	var setups, resolves, pins, rates, goodputs, p50s, p75s, p90s, p99s, lateUs []float64
	var a, b, c phaseResult // summed over the rigs
	var es tm.EdgeStats
	var ps tm.PoPStats
	var falseDeaths int64
	var rig *echoRig
	for i := 0; i < sz.EchoSetups; i++ {
		if rig != nil {
			rig.close()
		}
		r, d, err := newEchoRig(rc.t, rc.seed+int64(i))
		if err != nil {
			return err
		}
		rig = r
		setups = append(setups, d.Seconds())
		rs, err := rig.resolveLatency(rc.t, sz.EchoResolves)
		if err != nil {
			rig.close()
			return err
		}
		resolves = append(resolves, median(rs))

		// One pass over every flow first: a flow's first packet pins it
		// at the edge (the slow path, under the edge's lock) and enters it
		// in the PoP's Known Flows table. A one-second slice would
		// otherwise be a third pins; timed on its own, the pass is what
		// setting up 65,536 flows costs.
		warm := rig.closedLoop(&tracing{}, keys, sz.EchoSmallB, sz.EchoWindow, 5*time.Second, len(keys), 1<<39, false)
		pins = append(pins, 1000*warm.seconds)
		ai := rig.closedLoop(rc.t, keys, sz.EchoSmallB, sz.EchoWindow, slice, 0, 1, true)
		bi := rig.closedLoop(rc.t, keys, sz.EchoLargeB, sz.EchoWindow, slice, 0, 1<<40, false)
		ci := rig.openLoopPhase(rc.t, keys, sz.EchoSmallB, sz.EchoRate, slice, 1<<41)
		if ai.onTime == 0 || bi.onTime == 0 || len(ci.rttUs) == 0 {
			rig.close()
			return fmt.Errorf("rig %d: an echo phase delivered nothing (A %d, B %d, C %d)", i, ai.onTime, bi.onTime, len(ci.rttUs))
		}
		rates = append(rates, float64(ai.onTime)/ai.seconds)
		goodputs = append(goodputs, float64(bi.onTime)*float64(sz.EchoLargeB)*8/bi.seconds/1e6)
		asc := sorted(ci.rttUs)
		p50s, p75s = append(p50s, quantile(asc, 0.5)), append(p75s, quantile(asc, 0.75))
		p90s, p99s = append(p90s, quantile(asc, 0.90)), append(p99s, quantile(asc, 0.99))
		lateUs = append(lateUs, ci.lateUs...)
		ai.sent, ai.sendErrs, ai.lost, ai.corrupt = ai.sent+warm.sent, ai.sendErrs+warm.sendErrs, ai.lost+warm.lost, ai.corrupt+warm.corrupt
		ai.verified += warm.verified
		a.add(ai)
		b.add(bi)
		c.add(ci)
		e, p := rig.edge.Stats(), rig.pop.Stats()
		es.SendErrors, es.ProbesSent, es.RepliesRcvd = es.SendErrors+e.SendErrors, es.ProbesSent+e.ProbesSent, es.RepliesRcvd+e.RepliesRcvd
		ps.DataIn, ps.OverloadWaits, ps.DroppedReplies = ps.DataIn+p.DataIn, ps.OverloadWaits+p.OverloadWaits, ps.DroppedReplies+p.DroppedReplies
		ps.ActiveFlows = p.ActiveFlows
		falseDeaths += rig.falseDeaths.Load()
	}
	defer rig.close()

	sent, verified := 0, 0
	for _, ph := range []struct {
		name string
		p    phaseResult
	}{{"A", a}, {"B", b}, {"C", c}} {
		res.Attempted += ph.p.sent
		res.Failed += ph.p.failed()
		sent, verified = sent+ph.p.sent, verified+ph.p.verified
		if ph.p.failed() > 0 {
			res.violate("phase %s: %d of %d round trips failed (%d send errors, %d corrupt, %d lost)",
				ph.name, ph.p.failed(), ph.p.sent, ph.p.sendErrs, ph.p.corrupt, ph.p.lost)
		}
	}
	res.Samples["echo_rt_per_s"], res.Samples["echo_goodput_mbps"] = a.onTime, b.onTime
	for _, m := range []string{"echo_rtt_p50_us", "echo_rtt_p75_us", "echo_rtt_p90_us", "echo_rtt_p99_us"} {
		res.Samples[m] = c.verified
	}
	res.Samples["resolve_ms"], res.Samples["setup_s"], res.Samples["pin_flows_ms"] = sz.EchoSetups*sz.EchoResolves, len(setups), len(pins)
	res.Named["setup_s"] = median(setups)
	res.Named["echo_rt_per_s"] = midmean(rates)
	res.Named["echo_goodput_mbps"] = midmean(goodputs)
	res.Named["echo_rtt_p50_us"] = midmean(p50s)
	res.Named["echo_rtt_p75_us"] = midmean(p75s)
	res.Named["echo_rtt_p90_us"] = midmean(p90s)
	res.Named["echo_rtt_p99_us"] = midmean(p99s)
	res.Named["resolve_ms"] = midmean(resolves)
	res.Named["pin_flows_ms"] = midmean(pins)
	res.Named["delivered_frac"] = float64(verified) / float64(sent)
	res.E2E["setup_s"] = res.Named["setup_s"]
	res.E2E["op_p50_ms"] = res.Named["echo_rtt_p50_us"] / 1000
	res.E2E["op_tail_ms"] = res.Named["echo_rtt_p75_us"] / 1000
	res.E2E["ops_per_s"] = res.Named["echo_rt_per_s"]
	res.E2E["control_ms"] = res.Named["pin_flows_ms"]
	res.E2E["quality_frac"] = res.Named["delivered_frac"]
	lateAsc := sorted(lateUs)
	res.note("%d flows cycled, %d rigs, mid-means over rigs; per rig A: closed loop, window %d, %d B, %.1f s; B: same at %d B; C: open loop at %.0f round trips/s, %d B, %.1f s",
		sz.EchoFlows, sz.EchoSetups, sz.EchoWindow, sz.EchoSmallB, slice.Seconds(), sz.EchoLargeB, sz.EchoRate, sz.EchoSmallB, slice.Seconds())
	res.note("open-loop generator lateness (every send is made and timed from its due time, so this is inside the round trips): p50 %.1f us, p99 %.1f us, max %.0f us",
		quantile(lateAsc, 0.5), quantile(lateAsc, 0.99), lateAsc[len(lateAsc)-1])

	if !rc.trace {
		return nil
	}
	L := res.Layer
	L["proc.trace_overhead_pct"] = 100 * (overhead/res.Named["echo_rt_per_s"] - 1)
	L["tm.allocs_per_rt"] = float64(a.proc.mallocs) / float64(a.onTime)
	L["tm.cpu_us_per_rt"] = us(a.proc.cpu) / float64(a.onTime)
	L["tm.goodput_mbps"] = res.Named["echo_goodput_mbps"]
	L["tm.gen_late_p99_us"] = quantile(lateAsc, 0.99)
	L["tm.resolve_us"] = 1000 * res.Named["resolve_ms"]
	L["tm.rtt_p90_us"] = res.Named["echo_rtt_p90_us"]
	L["tm.rtt_p99_us"] = res.Named["echo_rtt_p99_us"]
	L["tm.edge_send_errors"] = float64(es.SendErrors)
	L["tm.probes_sent"] = float64(es.ProbesSent)
	if es.ProbesSent > 0 {
		L["tm.probe_reply_share"] = float64(es.RepliesRcvd) / float64(es.ProbesSent)
	}
	L["tm.false_failovers"] = float64(falseDeaths)
	if ps.DataIn > 0 {
		L["tm.pop_overload_waits_per_m"] = float64(ps.OverloadWaits) / float64(ps.DataIn) * 1e6
	}
	L["tm.pop_dropped_replies"] = float64(ps.DroppedReplies)
	L["tm.pop_active_flows"] = float64(ps.ActiveFlows)

	raw, batched, err := rawPoPRate(rc.t, rig.pop, keys, sz)
	if err != nil {
		return err
	}
	L["tm.pop_rt_per_s"] = raw
	if batched {
		L["netio.batched"] = 1
	}
	return probeTMProto(rc.t, keys[0], sz.EchoSmallB)
}

// rawPoPRate echoes pre-built datagrams off the PoP from a bare batched
// netio socket, no edge in the path: the ceiling Edge.Send is measured
// against.
func rawPoPRate(t *tracing, pop *tm.PoP, keys []tmproto.FlowKey, sz sizing) (float64, bool, error) {
	target, err := netip.ParseAddrPort(pop.Addr())
	if err != nil {
		return 0, false, err
	}
	client, err := netio.Listen("127.0.0.1:0", netio.Config{Sockets: 1})
	if err != nil {
		return 0, false, err
	}
	conn := client.Conns()[0]
	batch := client.Batch()
	nflows := len(keys)
	if nflows > 1024 {
		nflows = 1024
	}
	payload := make([]byte, sz.EchoSmallB)
	pkts := make([][]byte, nflows)
	for i := range pkts {
		fillPayload(payload, uint64(i), 0)
		if pkts[i], err = tmproto.AppendData(nil, tmproto.Data{Flow: keys[i], Payload: payload}); err != nil {
			_ = client.Close()
			return 0, false, err
		}
	}
	var rcvd atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ms := make([]netio.Message, batch)
		for i := range ms {
			ms[i].Buf = make([]byte, netio.MaxDatagram)
		}
		for {
			n, err := conn.ReadBatch(ms)
			if err != nil {
				return
			}
			rcvd.Add(int64(n))
		}
	}()

	const window = 2048
	sp := t.start(nil, "tm.pop_raw")
	start := time.Now()
	deadline := start.Add(time.Duration(sz.EchoPopRawSec * float64(time.Second)))
	msgs := make([]netio.Message, 0, batch)
	var sent, lost int64
	for time.Now().Before(deadline) {
		msgs = msgs[:0]
		for len(msgs) < batch {
			p := pkts[(int(sent)+len(msgs))%nflows]
			msgs = append(msgs, netio.Message{Buf: p, N: len(p), Addr: target})
		}
		for rest := msgs; len(rest) > 0; {
			n, err := conn.WriteBatch(rest)
			sent += int64(n)
			if err != nil {
				n++
			}
			rest = rest[n:]
		}
		// Hold the window; write off what stopped coming so a drop
		// cannot stall the loop.
		last, lastAt := rcvd.Load(), time.Now()
		for sent-rcvd.Load()-lost > window {
			runtime.Gosched()
			if got := rcvd.Load(); got != last {
				last, lastAt = got, time.Now()
			} else if time.Since(lastAt) > 100*time.Millisecond {
				lost = sent - got
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	got := rcvd.Load()
	sp.Finish()
	batched := client.Batched()
	_ = client.Close()
	<-done
	return float64(got) / elapsed, batched, nil
}

// tmprotoCalls is how many direct calls each tmproto probe span covers.
const tmprotoCalls = 200_000

// probeTMProto calls the wire codec directly on the small packet.
func probeTMProto(t *tracing, flow tmproto.FlowKey, size int) error {
	payload := make([]byte, size)
	fillPayload(payload, 1, 1)
	d := tmproto.Data{Flow: flow, Payload: payload}
	pkt, err := tmproto.AppendData(nil, d)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	op := t.start(nil, "tm-echo.tmproto")
	defer op.Finish()

	sp := t.start(op, "tmproto.append_data")
	for i := 0; i < tmprotoCalls; i++ {
		buf, _ = tmproto.AppendData(buf[:0], d)
	}
	sp.Finish()
	sp = t.start(op, "tmproto.decode")
	for i := 0; i < tmprotoCalls; i++ {
		if _, err := tmproto.ParseData(pkt); err != nil {
			sp.Finish()
			return err
		}
	}
	sp.Finish()
	sp = t.start(op, "tmproto.append_gre")
	for i := 0; i < tmprotoCalls; i++ {
		buf = tmproto.AppendGRE(buf[:0], 7, uint32(i), pkt)
	}
	sp.Finish()
	return nil
}

func tmEchoSpans(L map[string]float64, st spanTimes) {
	L["tm.edge_send_ns"] = median(st.dur["tm.edge_send"])
	for row, name := range map[string]string{
		"tmproto.append_data_ns": "tmproto.append_data",
		"tmproto.decode_ns":      "tmproto.decode",
		"tmproto.append_gre_ns":  "tmproto.append_gre",
	} {
		L[row] = median(st.dur[name]) / tmprotoCalls
	}
}
