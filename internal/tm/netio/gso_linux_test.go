//go:build linux && (amd64 || arm64)

package netio

import (
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
)

func mustAddrPort(t *testing.T, s string) netip.AddrPort {
	t.Helper()
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		t.Fatal(err)
	}
	return ap
}

// gso reports whether the group's sockets run the UDP_SEGMENT/UDP_GRO
// offload fast path (false where the kernel rejected the sockopt).
func (g *Group) gso() bool {
	if len(g.conns) == 0 {
		return false
	}
	c, ok := g.conns[0].(*batchConn)
	return ok && c.gso()
}

// gso reports whether both offload halves are live on this conn.
func (c *batchConn) gso() bool { return c.gsoOK && c.gro }

// gsoPair builds a sender and receiver group on loopback and returns
// them with cleanup registered. Both sides run the batched arm.
func gsoPair(t *testing.T, senderCfg, recvCfg Config) (*Group, *Group) {
	t.Helper()
	rx, err := Listen("127.0.0.1:0", recvCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close() })
	tx, err := Listen("127.0.0.1:0", senderCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	return tx, rx
}

// collect reads from conn until want payloads arrived or the deadline
// passes, using a read batch of readLen messages per call.
func collect(t *testing.T, conn Conn, want, readLen int, deadline time.Duration) map[string]int {
	t.Helper()
	got := make(map[string]int)
	results := make(chan map[string]int, 1)
	go func() {
		acc := make(map[string]int)
		ms := mkMsgs(readLen, 2048)
		n := 0
		for n < want {
			k, err := conn.ReadBatch(ms)
			if err != nil {
				break
			}
			for i := 0; i < k; i++ {
				acc[string(ms[i].Buf[:ms[i].N])]++
				n++
			}
		}
		results <- acc
	}()
	select {
	case acc := <-results:
		got = acc
	case <-time.After(deadline):
		t.Fatalf("timed out waiting for %d datagrams", want)
	}
	return got
}

// TestGSOUniformRoundTrip pushes a uniform batch (the UDP_SEGMENT happy
// path: same size, same destination) through a GSO sender to a GRO
// receiver and checks every payload arrives intact.
func TestGSOUniformRoundTrip(t *testing.T) {
	tx, rx := gsoPair(t,
		Config{Sockets: 1, Batch: 64}, Config{Sockets: 1, Batch: 64})
	if !tx.gso() || !rx.gso() {
		t.Skip("kernel without UDP_SEGMENT/UDP_GRO support")
	}
	const n = 48
	ms := make([]Message, n)
	for i := range ms {
		p := []byte(fmt.Sprintf("seg-%03d-padding-to-uniform", i))
		ms[i] = Message{Buf: p, N: len(p), Addr: rx.Addr()}
	}
	sent, err := tx.Conns()[0].WriteBatch(ms)
	if err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
	}
	got := collect(t, rx.Conns()[0], n, 64, 5*time.Second)
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("seg-%03d-padding-to-uniform", i)
		if got[want] != 1 {
			t.Errorf("payload %q arrived %d times, want 1", want, got[want])
		}
	}
}

// TestGROOverflowServing reads a large coalesced arrival through a read
// batch smaller than the segment count: the conn must serve the pending
// segments across successive ReadBatch calls without dropping any.
func TestGROOverflowServing(t *testing.T) {
	tx, rx := gsoPair(t,
		Config{Sockets: 1, Batch: 64}, Config{Sockets: 1, Batch: 64})
	if !tx.gso() || !rx.gso() {
		t.Skip("kernel without UDP_SEGMENT/UDP_GRO support")
	}
	const n = 40
	ms := make([]Message, n)
	for i := range ms {
		p := []byte(fmt.Sprintf("ovf-%03d-payload-same-size!", i))
		ms[i] = Message{Buf: p, N: len(p), Addr: rx.Addr()}
	}
	if sent, err := tx.Conns()[0].WriteBatch(ms); err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
	}
	// readLen 3 forces many servePending rounds per arrival.
	got := collect(t, rx.Conns()[0], n, 3, 5*time.Second)
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("ovf-%03d-payload-same-size!", i)
		if got[want] != 1 {
			t.Errorf("payload %q arrived %d times, want 1", want, got[want])
		}
	}
}

// TestGSOTrailingShortSegment exercises the kernel's trailing-segment
// rule: all segments equal except a smaller last one is still one GSO
// send, and the short segment must not be padded or merged.
func TestGSOTrailingShortSegment(t *testing.T) {
	tx, rx := gsoPair(t,
		Config{Sockets: 1, Batch: 64}, Config{Sockets: 1, Batch: 64})
	if !tx.gso() || !rx.gso() {
		t.Skip("kernel without UDP_SEGMENT/UDP_GRO support")
	}
	payloads := []string{"equal-size-0", "equal-size-1", "equal-size-2", "tail"}
	ms := make([]Message, len(payloads))
	for i, p := range payloads {
		ms[i] = Message{Buf: []byte(p), N: len(p), Addr: rx.Addr()}
	}
	if sent, err := tx.Conns()[0].WriteBatch(ms); err != nil || sent != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, len(ms))
	}
	got := collect(t, rx.Conns()[0], len(payloads), 8, 5*time.Second)
	for _, p := range payloads {
		if got[p] != 1 {
			t.Errorf("payload %q arrived %d times, want 1", p, got[p])
		}
	}
}

// TestGSONonUniformFallback sends a batch GSO cannot express (mixed
// sizes with a long message in the middle) and checks the sendmmsg
// fallback still delivers everything.
func TestGSONonUniformFallback(t *testing.T) {
	tx, rx := gsoPair(t,
		Config{Sockets: 1, Batch: 64}, Config{Sockets: 1, Batch: 64})
	payloads := []string{"a", "much-longer-message-here", "mid", "x", "another-long-one-at-the-end"}
	ms := make([]Message, len(payloads))
	for i, p := range payloads {
		ms[i] = Message{Buf: []byte(p), N: len(p), Addr: rx.Addr()}
	}
	if sent, err := tx.Conns()[0].WriteBatch(ms); err != nil || sent != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, len(ms))
	}
	got := collect(t, rx.Conns()[0], len(payloads), 8, 5*time.Second)
	for _, p := range payloads {
		if got[p] != 1 {
			t.Errorf("payload %q arrived %d times, want 1", p, got[p])
		}
	}
}

// plainBatchConn binds a loopback socket and returns its batchConn in
// the state a kernel without segmentation offload leaves it in:
// UDP_SEGMENT refused (gsoOK cleared) and UDP_GRO never granted.
func plainBatchConn(t *testing.T) *batchConn {
	t.Helper()
	u, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	conn, err := newBatchConn(u, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := conn.(*batchConn)
	c.gsoOK = false
	if c.gro {
		var serr error
		if err := c.raw.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 0)
		}); err != nil || serr != nil {
			t.Fatalf("clear UDP_GRO: %v %v", err, serr)
		}
		c.gro = false
	}
	return c
}

// TestPlainMmsgFallback moves a uniform batch — one GSO would take —
// through plain sendmmsg/recvmmsg, the path that runs when the kernel
// offers no UDP_SEGMENT/UDP_GRO.
func TestPlainMmsgFallback(t *testing.T) {
	tx, rx := plainBatchConn(t), plainBatchConn(t)
	if tx.gso() || rx.gso() {
		t.Fatal("conn without offload still reports GSO active")
	}
	const n = 16
	ms := make([]Message, n)
	for i := range ms {
		p := []byte(fmt.Sprintf("plain-%02d", i))
		ms[i] = Message{Buf: p, N: len(p), Addr: rx.LocalAddr()}
	}
	if sent, err := tx.WriteBatch(ms); err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
	}
	got := collect(t, rx, n, 16, 5*time.Second)
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("plain-%02d", i)
		if got[want] != 1 {
			t.Errorf("payload %q arrived %d times, want 1", want, got[want])
		}
	}
}

// TestGSOEligibility pins the batch-shape rules the write path relies
// on: uniformity, trailing-short, single-destination, segment caps.
func TestGSOEligibility(t *testing.T) {
	a1 := mustAddrPort(t, "127.0.0.1:1000")
	a2 := mustAddrPort(t, "127.0.0.1:2000")
	msg := func(n int, to string) Message {
		ap := a1
		if to == "b" {
			ap = a2
		}
		return Message{Buf: make([]byte, n), N: n, Addr: ap}
	}
	cases := []struct {
		name  string
		chunk []Message
		ok    bool
		seg   int
	}{
		{"single message", []Message{msg(10, "a")}, false, 0},
		{"uniform", []Message{msg(10, "a"), msg(10, "a"), msg(10, "a")}, true, 10},
		{"trailing short", []Message{msg(10, "a"), msg(10, "a"), msg(4, "a")}, true, 10},
		{"short in middle", []Message{msg(10, "a"), msg(4, "a"), msg(10, "a")}, false, 0},
		{"larger last", []Message{msg(10, "a"), msg(12, "a")}, false, 0},
		{"mixed destinations", []Message{msg(10, "a"), msg(10, "b")}, false, 0},
		{"zero length first", []Message{msg(0, "a"), msg(10, "a")}, false, 0},
		{"zero length last", []Message{msg(10, "a"), msg(0, "a")}, false, 0},
	}
	for _, tc := range cases {
		seg, _, ok := gsoEligible(tc.chunk)
		if ok != tc.ok || (ok && seg != tc.seg) {
			t.Errorf("%s: gsoEligible = seg %d ok %v, want seg %d ok %v",
				tc.name, seg, ok, tc.seg, tc.ok)
		}
	}
	// Over the kernel's 64-segment cap.
	big := make([]Message, maxGSOSegs+1)
	for i := range big {
		big[i] = msg(10, "a")
	}
	if _, _, ok := gsoEligible(big); ok {
		t.Error("batch over maxGSOSegs reported eligible")
	}
}
