package experiments

// Datapath throughput benchmark (BENCH_DATAPATH.json): the tentpole
// claim behind the TM rebuild is that batched I/O (SO_REUSEPORT +
// recvmmsg/sendmmsg) moves packets several times faster than the
// portable one-syscall-per-datagram path, and that failure detection
// and flow re-pinning stay at RTT timescales even with 10⁵ pinned
// flows. Three measurements:
//
//  1. pps arms — a synthetic client echoes packets off a live TM-PoP
//     with both sides on the portable single-packet arm, the batched
//     arm, and the batched arm with GRE framing, side by side. The
//     closed-loop window keeps the socket buffers from overflowing so
//     the arms measure the datapath, not loss recovery.
//  2. failover at scale — an edge with 10⁵ flows pinned to PoP-A loses
//     its link; we time dead-detection, re-selection to PoP-B, and the
//     per-flow re-pin cost, in RTT units.
//  3. NAT rebind — the tmchaos scenario, included so the JSON artifact
//     records the re-homing contract alongside the throughput numbers.

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"painter/internal/benchmeta"
	"painter/internal/chaos/tmchaos"
	"painter/internal/netsim/emul"
	"painter/internal/tm"
	"painter/internal/tm/netio"
	"painter/internal/tmproto"
)

// DatapathBenchConfig parameterizes the benchmark.
type DatapathBenchConfig struct {
	// Packets is the number of echo round trips per pps arm.
	Packets int
	// Flows is the number of distinct flows cycled through in pps arms.
	Flows int
	// Window is the max in-flight packets (closed-loop flow control).
	Window int
	// Batch is the batched arms' datagrams-per-syscall.
	Batch int
	// ScaleFlows is the pinned-flow count for the failover measurement.
	ScaleFlows int
	// LinkDelay is the emulated one-way edge↔PoP delay for failover.
	LinkDelay time.Duration
	Seed      int64
}

func (c *DatapathBenchConfig) defaults() {
	if c.Packets <= 0 {
		c.Packets = 50_000
	}
	if c.Flows <= 0 {
		c.Flows = 256
	}
	if c.Window <= 0 {
		c.Window = 8192
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.ScaleFlows <= 0 {
		c.ScaleFlows = 100_000
	}
	if c.LinkDelay <= 0 {
		c.LinkDelay = 10 * time.Millisecond
	}
}

// DatapathArm is one pps measurement.
type DatapathArm struct {
	Name string `json:"name"`
	// Batched reports whether the multi-message syscall arm was actually
	// in use (false on non-Linux even when requested).
	Batched bool `json:"batched"`
	Batch   int  `json:"batch"`
	GRE     bool `json:"gre"`
	// Sent/Delivered are echo round trips attempted and completed.
	Sent       int     `json:"sent"`
	Delivered  int64   `json:"delivered"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// Reps is how many times the arm ran; the recorded numbers are the
	// best rep's (every arm gets the same rep count).
	Reps int `json:"reps"`
	// PPS is delivered echo round trips per second; each round trip is
	// four datagrams on the wire (data in/out on both hosts).
	PPS float64 `json:"pps"`
}

// DatapathFailover is the failover-at-scale measurement.
type DatapathFailover struct {
	Flows     int     `json:"flows"`
	LinkRTTMs float64 `json:"link_rtt_ms"`
	// DetectMs is SetDown → EventDestDead.
	DetectMs float64 `json:"detect_ms"`
	// DetectRTTs is DetectMs in units of the dead path's RTT (the paper:
	// typically 1.3, minimum 0.5).
	DetectRTTs float64 `json:"detect_rtts"`
	// SwitchMs is SetDown → EventSelected(backup).
	SwitchMs float64 `json:"switch_ms"`
	// RepinSampled flows were sent after the switch; RepinPerFlowMicros
	// is the mean re-pin cost of each such send against the full-size
	// flow table.
	RepinSampled       int     `json:"repin_sampled"`
	RepinPerFlowMicros float64 `json:"repin_per_flow_us"`
}

// DatapathBenchResult marshals to BENCH_DATAPATH.json. Meta stays zero
// here; cmd/painter-bench stamps it just before writing.
type DatapathBenchResult struct {
	benchmeta.Meta
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`

	Arms []DatapathArm `json:"arms"`
	// SpeedupX is batched-arm pps over portable-arm pps.
	SpeedupX float64 `json:"speedup_x"`

	Failover  DatapathFailover         `json:"failover"`
	NATRebind *tmchaos.NATRebindResult `json:"nat_rebind"`

	ElapsedSec float64 `json:"elapsed_sec"`
}

// RunDatapathBench runs all three measurements.
func RunDatapathBench(cfg DatapathBenchConfig) (*DatapathBenchResult, error) {
	cfg.defaults()
	start := time.Now()
	res := &DatapathBenchResult{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
	}

	arms := []struct {
		name  string
		batch int
		gre   bool
	}{
		{"portable", 1, false},
		{"batched", cfg.Batch, false},
		{"batched-gre", cfg.Batch, true},
	}
	// Every arm runs the same number of reps and reports its best rep:
	// on a shared/single-CPU box any individual rep can lose tens of
	// percent to unrelated scheduling, and best-of-N recovers each arm's
	// actual capability without favoring either side.
	const reps = 3
	for _, a := range arms {
		var best DatapathArm
		for r := 0; r < reps; r++ {
			arm, err := runPPSArm(a.name, a.batch, a.gre, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: datapath arm %s: %w", a.name, err)
			}
			if r == 0 || arm.PPS > best.PPS {
				best = arm
			}
		}
		best.Reps = reps
		res.Arms = append(res.Arms, best)
	}
	if res.Arms[0].PPS > 0 {
		res.SpeedupX = res.Arms[1].PPS / res.Arms[0].PPS
	}

	// The failover leg depends on probes staying quiet while 10^5 flows
	// pin; on a loaded single-CPU machine a flap can still slip through
	// the pacing, so a flapped attempt is discarded and re-run rather
	// than reported as a (meaningless) measurement.
	var fo *DatapathFailover
	for attempt := 0; ; attempt++ {
		var err error
		fo, err = runFailoverAtScale(cfg)
		if err == nil {
			break
		}
		if errors.Is(err, errFailoverFlapped) && attempt < 2 {
			continue
		}
		return nil, fmt.Errorf("experiments: datapath failover: %w", err)
	}
	res.Failover = *fo

	nr, err := tmchaos.RunNATRebind(tmchaos.DefaultNATRebindConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: datapath nat-rebind: %w", err)
	}
	res.NATRebind = nr

	res.ElapsedSec = time.Since(start).Seconds()
	return res, nil
}

// runPPSArm measures closed-loop echo throughput against a live PoP
// with client and PoP both on the given batch setting.
func runPPSArm(name string, batch int, gre bool, cfg DatapathBenchConfig) (DatapathArm, error) {
	arm := DatapathArm{Name: name, Batch: batch, GRE: gre, Sent: cfg.Packets}
	pop, err := tm.NewPoP(tm.PoPConfig{
		ListenAddr: "127.0.0.1:0", PoPID: 1,
		Sockets: 1, Batch: batch, FlowTTL: 10 * time.Minute,
	})
	if err != nil {
		return arm, err
	}
	defer pop.Close()
	target, err := netip.ParseAddrPort(pop.Addr())
	if err != nil {
		return arm, err
	}
	client, err := netio.Listen("127.0.0.1:0", netio.Config{Sockets: 1, Batch: batch})
	if err != nil {
		return arm, err
	}
	defer client.Close()
	conn := client.Conns()[0]
	arm.Batched = client.Batched()

	// One pre-built datagram per flow, GRE-framed when the arm says so
	// (the PoP detects framing per packet and mirrors it on the reply).
	pkts := make([][]byte, cfg.Flows)
	for i := range pkts {
		fk := tmproto.FlowKey{
			Proto:   17,
			Src:     netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("203.0.113.9"),
			SrcPort: uint16(30000 + i),
			DstPort: 443,
		}
		inner, err := tmproto.AppendData(nil, tmproto.Data{Flow: fk, Payload: []byte("pps")})
		if err != nil {
			return arm, err
		}
		if gre {
			pkts[i] = tmproto.AppendGRE(nil, 7, uint32(i), inner)
		} else {
			pkts[i] = inner
		}
	}

	var rcvd atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
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

	// Per-arm closed-loop window: the single-packet arm overflows its
	// receive buffers long before the batched arm does, and a lossy run
	// measures stall recovery, not the datapath. Size each arm's window
	// to what it can keep in flight losslessly.
	window := cfg.Window
	if batch <= 1 {
		window = cfg.Window / 8
		if window < 256 {
			window = 256
		}
	}

	startArm := time.Now()
	buf := make([]netio.Message, 0, batch)
	sent := 0
	// lost writes off packets presumed dropped: UDP gives no delivery
	// guarantee even on loopback, and without the write-off every drop
	// permanently shrinks the effective window until the throttle loop
	// can never drain (in-flight = sent − rcvd − lost).
	var lost int64
	for sent < cfg.Packets {
		ms := buf[:0] // refill from the original base; ms[n:] below moves it
		for len(ms) < batch && sent+len(ms) < cfg.Packets {
			pkt := pkts[(sent+len(ms))%cfg.Flows]
			ms = append(ms, netio.Message{Buf: pkt, N: len(pkt), Addr: target})
		}
		for len(ms) > 0 {
			n, err := conn.WriteBatch(ms)
			sent += n
			if err != nil {
				n++ // skip the failed message
			}
			ms = ms[n:]
		}
		lastN, progressAt := rcvd.Load(), time.Now()
		for int64(sent)-rcvd.Load()-lost > int64(window) {
			time.Sleep(20 * time.Microsecond)
			if n := rcvd.Load(); n > lastN {
				lastN, progressAt = n, time.Now()
			} else if time.Since(progressAt) > 200*time.Millisecond {
				lost = int64(sent) - lastN // whole remainder presumed dropped
			}
		}
	}
	// Drain: echoes stop arriving either when all are in (lossless run)
	// or when the in-flight remainder was dropped; stop at quiescence.
	last, lastAt := rcvd.Load(), time.Now()
	for rcvd.Load() < int64(cfg.Packets) && time.Since(lastAt) < 300*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if n := rcvd.Load(); n > last {
			last, lastAt = n, time.Now()
		}
	}
	arm.Delivered = rcvd.Load()
	arm.ElapsedSec = lastAt.Sub(startArm).Seconds()
	if arm.ElapsedSec > 0 {
		arm.PPS = float64(arm.Delivered) / arm.ElapsedSec
	}
	return arm, nil
}

// errFailoverFlapped means probe flaps during the pinning phase moved
// flows off PoP-A before the induced failure; the attempt is invalid.
var errFailoverFlapped = errors.New("destination flapped while pinning flows")

// runFailoverAtScale pins cfg.ScaleFlows flows to PoP-A, kills the
// link, and times detection, re-selection, and re-pinning.
func runFailoverAtScale(cfg DatapathBenchConfig) (*DatapathFailover, error) {
	popA, err := tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1, Service: tm.DiscardService{}})
	if err != nil {
		return nil, err
	}
	defer popA.Close()
	popB, err := tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 2, Service: tm.DiscardService{}})
	if err != nil {
		return nil, err
	}
	defer popB.Close()
	linkA, err := emul.NewLink(popA.Addr(), cfg.LinkDelay, cfg.Seed+21)
	if err != nil {
		return nil, err
	}
	defer linkA.Close()
	linkB, err := emul.NewLink(popB.Addr(), cfg.LinkDelay+2*time.Millisecond, cfg.Seed+22)
	if err != nil {
		return nil, err
	}
	defer linkB.Close()
	destOf := func(l *emul.Link, pop uint32) (tmproto.Destination, error) {
		ap, err := netip.ParseAddrPort(l.Addr())
		if err != nil {
			return tmproto.Destination{}, err
		}
		return tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: pop}, nil
	}
	dA, err := destOf(linkA, 1)
	if err != nil {
		return nil, err
	}
	dB, err := destOf(linkB, 2)
	if err != nil {
		return nil, err
	}

	events := make(chan tm.Event, 64)
	ecfg := tm.DefaultEdgeConfig()
	ecfg.ProbeInterval = 5 * time.Millisecond
	// Generous hysteresis: scheduling noise on a loaded box inflates
	// both probe RTTs by tens of ms while 10^5 flows pin, and this leg
	// measures failure detection, not fine-grained RTT preference. A
	// dead incumbent is excluded from selection regardless of
	// hysteresis, so failover behavior is unchanged.
	ecfg.SwitchHysteresisMs = 15
	ecfg.Destinations = []tmproto.Destination{dA, dB}
	ecfg.OnEvent = func(ev tm.Event) {
		select {
		case events <- ev:
		default:
		}
	}
	edge, err := tm.NewEdge(ecfg)
	if err != nil {
		return nil, err
	}
	defer edge.Close()

	waitFor := func(want tm.EventKind, pop uint32, timeout time.Duration) (tm.Event, error) {
		dl := time.After(timeout)
		for {
			select {
			case ev := <-events:
				if ev.Kind == want && (pop == 0 || ev.Dest.PoP == pop) {
					return ev, nil
				}
			case <-dl:
				return tm.Event{}, fmt.Errorf("timed out waiting for %v (pop %d)", want, pop)
			}
		}
	}
	if _, err := waitFor(tm.EventSelected, 1, 5*time.Second); err != nil {
		return nil, fmt.Errorf("PoP-A never selected: %w", err)
	}

	// Pin the full flow population to PoP-A. Delivery through the relay
	// is irrelevant here — pinning happens edge-side on send — but probe
	// liveness is not: probes share linkA with this traffic, and a
	// 10^5-packet blast queues data ahead of probe replies and keeps
	// thousands of relay timers in flight on what may be a single CPU,
	// starving probes past the failure timeout and flapping the very
	// destination we are about to kill on purpose. Drop the data class
	// at the link front for the duration of pinning, so probes ride an
	// otherwise-quiet link, then verify nothing flapped.
	flapsBefore := edge.Stats().Failovers
	dropData := func(pkt []byte) bool {
		return len(pkt) < 4 || pkt[3] != byte(tmproto.TypeData)
	}
	linkA.SetFilter(dropData)
	linkB.SetFilter(dropData)
	keys := make([]tmproto.FlowKey, cfg.ScaleFlows)
	for i := range keys {
		keys[i] = tmproto.FlowKey{
			Proto:   17,
			Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("203.0.113.9"),
			SrcPort: uint16(i),
			DstPort: uint16(443 + i>>16),
		}
	}
	payload := []byte{1}
	for i, k := range keys {
		_ = edge.Send(k, payload) // socket-buffer overflows are fine
		if i%500 == 499 {
			time.Sleep(5 * time.Millisecond) // let the prober and recv loops run
		}
	}
	linkA.SetFilter(nil)
	linkB.SetFilter(nil)
	// Let probe state settle, then make sure the pinning phase did not
	// flap selection: a flap means some flows are pinned to PoP-B and
	// the re-pin sample below would be meaningless. The caller retries
	// the whole leg in that case.
	time.Sleep(4*cfg.LinkDelay + 200*time.Millisecond)
	if edge.Stats().Failovers != flapsBefore {
		return nil, errFailoverFlapped
	}
	// Drop stale events queued during pinning so the detection clock
	// below can only match the failure we induce.
	for {
		select {
		case <-events:
			continue
		default:
		}
		break
	}

	fo := &DatapathFailover{
		Flows:     cfg.ScaleFlows,
		LinkRTTMs: float64(2*cfg.LinkDelay) / float64(time.Millisecond),
	}
	t0 := time.Now()
	linkA.SetDown(true)
	dead, err := waitFor(tm.EventDestDead, 1, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("death never detected: %w", err)
	}
	fo.DetectMs = dead.At.Sub(t0).Seconds() * 1000
	if fo.DetectMs < 0 {
		fo.DetectMs = time.Since(t0).Seconds() * 1000
	}
	fo.DetectRTTs = fo.DetectMs / fo.LinkRTTMs
	sel, err := waitFor(tm.EventSelected, 2, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("backup never selected: %w", err)
	}
	fo.SwitchMs = sel.At.Sub(t0).Seconds() * 1000

	// Re-pin cost: send on a sample of the pinned flows against the
	// full-size table; each first send walks the slow path and re-pins.
	sample := 1000
	if sample > len(keys) {
		sample = len(keys)
	}
	before := edge.Stats().RepinnedFlows
	rs := time.Now()
	for _, k := range keys[:sample] {
		_ = edge.Send(k, payload)
	}
	fo.RepinSampled = sample
	fo.RepinPerFlowMicros = float64(time.Since(rs).Microseconds()) / float64(sample)
	if got := edge.Stats().RepinnedFlows - before; got < uint64(sample) {
		return nil, fmt.Errorf("only %d of %d sampled flows re-pinned", got, sample)
	}
	return fo, nil
}

// Table renders the result for painter-bench.
func (r *DatapathBenchResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("TM datapath throughput (%s/%s, %d CPU, batched speedup %.1fx)",
			r.GOOS, r.GOARCH, r.CPUs, r.SpeedupX),
		Header: []string{"arm", "batched", "gre", "delivered", "pps"},
	}
	for _, a := range r.Arms {
		t.Rows = append(t.Rows, []string{
			a.Name,
			fmt.Sprintf("%v", a.Batched),
			fmt.Sprintf("%v", a.GRE),
			fmt.Sprintf("%d/%d", a.Delivered, a.Sent),
			fmt.Sprintf("%.0f", a.PPS),
		})
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("failover@%dk flows", r.Failover.Flows/1000), "", "",
		fmt.Sprintf("detect %.1fms (%.2f RTT)", r.Failover.DetectMs, r.Failover.DetectRTTs),
		fmt.Sprintf("repin %.1fus/flow", r.Failover.RepinPerFlowMicros),
	})
	if r.NATRebind != nil {
		t.Rows = append(t.Rows, []string{
			"nat-rebind", "", "",
			fmt.Sprintf("%d moves/%d flows", r.NATRebind.FlowMoves, r.NATRebind.Flows),
			fmt.Sprintf("%.0f%% delivered", r.NATRebind.DeliveredPct),
		})
	}
	return t
}
