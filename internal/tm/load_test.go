package tm

import (
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"painter/internal/netsim/emul"
	"painter/internal/tm/netio"
	"painter/internal/tmproto"
)

// TestTunnelUnderLoss drives sustained traffic through a lossy link and
// checks the tunnel keeps working and the prober keeps the destination
// alive despite drops.
func TestTunnelUnderLoss(t *testing.T) {
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	link, err := emul.NewLink(pop.Addr(), 2*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	link.SetLossPct(10)

	var rcvd atomic.Int64
	cfg := DefaultEdgeConfig()
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.MinFailureTimeout = 100 * time.Millisecond // ride out bursts of loss
	cfg.Destinations = []tmproto.Destination{destFor(link, 1)}
	cfg.OnReturn = func(tmproto.FlowKey, []byte) { rcvd.Add(1) }
	edge, err := NewEdge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := edge.Selected(); ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := edge.Selected(); !ok {
		t.Fatal("destination never came alive under 10% loss")
	}

	const sends = 300
	fk := flowKey(9000)
	for i := 0; i < sends; i++ {
		if err := edge.Send(fk, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && rcvd.Load() < sends*6/10 {
		time.Sleep(10 * time.Millisecond)
	}
	// 10% loss each way on data+echo: expect ~81% delivery; demand 60%.
	if got := rcvd.Load(); got < sends*6/10 {
		t.Errorf("delivered %d of %d echoes under 10%% loss", got, sends)
	}
	// The destination must still be alive (loss is not failure).
	if d, ok := edge.Selected(); !ok || d.PoP != 1 {
		t.Error("destination flapped dead under loss")
	}
}

// TestManyConcurrentFlows exercises the PoP's Known Flows table with
// hundreds of distinct flows concurrently.
func TestManyConcurrentFlows(t *testing.T) {
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	link, err := emul.NewLink(pop.Addr(), time.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	var mu sync.Mutex
	perFlow := map[uint16]int{}
	cfg := DefaultEdgeConfig()
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.Destinations = []tmproto.Destination{destFor(link, 1)}
	cfg.OnReturn = func(fk tmproto.FlowKey, _ []byte) {
		mu.Lock()
		perFlow[fk.SrcPort]++
		mu.Unlock()
	}
	edge, err := NewEdge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := edge.Selected(); ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	const flows = 200
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fk := flowKey(uint16(10000 + i))
			for j := 0; j < 3; j++ {
				_ = edge.Send(fk, []byte{byte(j)})
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()

	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(perFlow)
		mu.Unlock()
		if n >= flows*95/100 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	n := len(perFlow)
	mu.Unlock()
	if n < flows*95/100 {
		t.Errorf("only %d of %d flows got echoes", n, flows)
	}
	if st := pop.Stats(); st.ActiveFlows < flows*95/100 {
		t.Errorf("PoP Known Flows has %d entries, want ~%d", st.ActiveFlows, flows)
	}
}

// DiscardService consumes payloads without replying — the ingest-side
// workload for flow-table load tests, where echoing would measure the
// echo path instead of the datapath under test.
type DiscardService struct{}

// Handle implements Service.
func (DiscardService) Handle(tmproto.FlowKey, []byte, func([]byte) error) {}

// TestHundredThousandFlows drives 10⁵ distinct flows into a PoP through
// the batched client path and checks the sharded Known Flows table holds
// all of them. Injection bypasses the emul relay (a per-packet goroutine
// per datagram would dominate the run) and writes batched datagrams
// straight at the PoP's sockets — exactly the datapath under test:
// client WriteBatch → SO_REUSEPORT readers → batched reads → striped
// table inserts. Runs under -race in `make race`; UDP gives no delivery
// guarantee even on loopback, so rounds are resent until the table
// converges.
func TestHundredThousandFlows(t *testing.T) {
	const flows = 100_000
	pop, err := NewPoP(PoPConfig{
		ListenAddr: "127.0.0.1:0",
		Service:    DiscardService{}, // echoing 10⁵ replies would measure the echo path
		FlowTTL:    10 * time.Minute, // no purge races with the fill
		Batch:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	target, err := netip.ParseAddrPort(pop.Addr())
	if err != nil {
		t.Fatal(err)
	}

	client, err := netio.Listen("127.0.0.1:0", netio.Config{Sockets: 1, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn := client.Conns()[0]

	// Pre-build one datagram per flow: vary src addr and both ports so
	// the keys cover the full stripe space.
	pkts := make([][]byte, flows)
	for i := range pkts {
		fk := tmproto.FlowKey{
			Proto:   17,
			Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("203.0.113.9"),
			SrcPort: uint16(i),
			DstPort: uint16(443 + i>>16),
		}
		pkt, err := tmproto.AppendData(nil, tmproto.Data{Flow: fk, Payload: []byte{1}})
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = pkt
	}

	// Loopback UDP has no flow control, so self-clock against the PoP's
	// DataIn counter: never let more than `window` datagrams sit between
	// sender and reader, which keeps the socket buffer from overflowing
	// and makes a pass effectively lossless.
	var sent uint64
	const window = 2048
	sendAll := func() {
		ms := make([]netio.Message, 0, 64)
		flush := func() {
			for len(ms) > 0 {
				n, err := conn.WriteBatch(ms)
				sent += uint64(n)
				if err != nil {
					n++ // skip the poisoned message, resume behind it
				}
				ms = ms[n:]
			}
			ms = ms[:0]
			for sent > pop.Stats().DataIn+window {
				time.Sleep(200 * time.Microsecond)
			}
		}
		for _, pkt := range pkts {
			ms = append(ms, netio.Message{Buf: pkt, N: len(pkt), Addr: target})
			if len(ms) == cap(ms) {
				flush()
			}
		}
		flush()
	}

	deadline := time.Now().Add(2 * time.Minute)
	for round := 0; ; round++ {
		sendAll()
		settle := time.Now().Add(2 * time.Second)
		for time.Now().Before(settle) && pop.Stats().ActiveFlows < flows {
			time.Sleep(10 * time.Millisecond)
		}
		if pop.Stats().ActiveFlows >= flows {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds the table holds %d of %d flows", round+1, pop.Stats().ActiveFlows, flows)
		}
	}
	st := pop.Stats()
	if st.ActiveFlows != flows {
		t.Fatalf("ActiveFlows = %d, want exactly %d (no duplicate keys)", st.ActiveFlows, flows)
	}
	if st.DataIn < flows {
		t.Fatalf("DataIn = %d, want >= %d", st.DataIn, flows)
	}
	if st.Malformed != 0 {
		t.Fatalf("Malformed = %d on well-formed batched input", st.Malformed)
	}
}

// BenchmarkTunnelRoundTrip measures end-to-end round trips through the
// full encap → link → decap → NAT → echo → return path.
func BenchmarkTunnelRoundTrip(b *testing.B) {
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer pop.Close()
	link, err := emul.NewLink(pop.Addr(), 0, 5)
	if err != nil {
		b.Fatal(err)
	}
	defer link.Close()

	echo := make(chan struct{}, 1024)
	cfg := DefaultEdgeConfig()
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.Destinations = []tmproto.Destination{destFor(link, 1)}
	cfg.OnReturn = func(tmproto.FlowKey, []byte) { echo <- struct{}{} }
	edge, err := NewEdge(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer edge.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := edge.Selected(); ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := edge.Selected(); !ok {
		b.Fatal("no destination")
	}

	payload := make([]byte, 1400)
	fk := flowKey(20000)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := edge.Send(fk, payload); err != nil {
			b.Fatal(err)
		}
		select {
		case <-echo:
		case <-time.After(2 * time.Second):
			b.Fatal("echo timeout")
		}
	}
}

// dataWrites counts the WriteBatch calls that carry data; probe writes
// pass through uncounted.
type dataWrites struct {
	netio.Conn
	n atomic.Int64
}

func (c *dataWrites) WriteBatch(ms []netio.Message) (int, error) {
	if t, err := tmproto.PeekType(ms[0].Buf[:ms[0].N]); err == nil && t == tmproto.TypeData {
		c.n.Add(1)
	}
	return c.Conn.WriteBatch(ms)
}

// BenchmarkEdgeClosedLoop keeps 256 round trips of 16 B in flight over
// 4,096 pinned flows, edge straight to PoP on loopback: the shape of
// tm-echo's closed-loop phase. An op is one round trip. Beside round
// trips per second it reports allocations and data WriteBatch calls per
// round trip; the second is the count that coalescing moves.
func BenchmarkEdgeClosedLoop(b *testing.B) {
	const window, size, nflows = 256, 16, 4096
	pop, err := NewPoP(PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1, FlowTTL: 10 * time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	defer pop.Close()
	ap, err := netip.ParseAddrPort(pop.Addr())
	if err != nil {
		b.Fatal(err)
	}

	slots := make(chan struct{}, window) // one per round trip in flight
	var echoes atomic.Int64
	cfg := DefaultEdgeConfig()
	cfg.Destinations = []tmproto.Destination{{Addr: ap.Addr(), Port: ap.Port(), PoP: 1}}
	cfg.OnReturn = func(tmproto.FlowKey, []byte) {
		echoes.Add(1)
		select {
		case <-slots:
		default:
		}
	}
	group, err := netio.Listen("127.0.0.1:0", netio.Config{})
	if err != nil {
		b.Fatal(err)
	}
	out := &dataWrites{Conn: group.Conns()[0]}
	edge := newEdge(cfg.withDefaults(), out, group.Batch())
	if err := edge.start(group); err != nil {
		_ = group.Close()
		b.Fatal(err)
	}
	defer edge.Close()
	deadline := time.Now().Add(2 * time.Second)
	for _, ok := edge.Selected(); !ok; _, ok = edge.Selected() {
		if time.Now().After(deadline) {
			b.Fatal("no destination")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Echoes that never come back (UDP) are written off after 200 ms
	// without progress, so the window cannot shrink for good.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		last, lastAt := echoes.Load(), time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				if got := echoes.Load(); got != last || now.Sub(lastAt) < 200*time.Millisecond {
					if got != last {
						last, lastAt = got, now
					}
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
	flows := make([]tmproto.FlowKey, nflows)
	for i := range flows {
		flows[i] = tmproto.FlowKey{
			Proto:   17,
			Src:     netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("203.0.113.9"),
			SrcPort: uint16(20000 + i),
			DstPort: 443,
		}
	}
	payload := make([]byte, size)
	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			slots <- struct{}{}
			if err := edge.Send(flows[i%nflows], payload); err != nil {
				b.Fatal(err)
			}
		}
		for wait := time.Now(); len(slots) > 0 && time.Since(wait) < time.Second; {
			time.Sleep(time.Millisecond)
		}
	}
	roundTrips(nflows) // pin every flow at the edge and the PoP

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	echoes0, writes0 := echoes.Load(), out.n.Load()
	b.ResetTimer()
	start := time.Now()
	roundTrips(b.N)
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	rts := float64(echoes.Load() - echoes0)
	b.ReportMetric(rts/elapsed.Seconds(), "rt/s")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/rts, "allocs/rt")
	b.ReportMetric(float64(out.n.Load()-writes0)/rts, "writes/rt")
}
