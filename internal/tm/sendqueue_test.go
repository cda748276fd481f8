package tm

// Socket-free tests of the edge's data send queue. The edge writes
// through a conn whose every data WriteBatch parks until the test lets
// it go, so which goroutine flushes and how much each flush takes is
// decided by the test, not by the scheduler: every count is exact, and
// no outcome rests on a sleep.

import (
	"fmt"
	"io"
	"math"
	"net/netip"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"painter/internal/tm/netio"
	"painter/internal/tmproto"
)

// gateConn parks each data WriteBatch until release and records, in
// the order they left, the payloads of the data datagrams that were
// written. Probes pass straight through.
type gateConn struct {
	entered chan int      // a data batch of this many datagrams is parked
	release chan struct{} // lets one parked batch go

	// failAt, when >= 0, makes message failAt of the first data batch
	// longer than it fail.
	failAt int

	mu    sync.Mutex
	calls int // data WriteBatch calls
	left  []sentData
}

type sentData struct {
	flow    tmproto.FlowKey
	payload string
}

func newGateConn() *gateConn {
	return &gateConn{entered: make(chan int), release: make(chan struct{}), failAt: -1}
}

func (c *gateConn) WriteBatch(ms []netio.Message) (int, error) {
	if t, err := tmproto.PeekType(ms[0].Buf[:ms[0].N]); err != nil || t != tmproto.TypeData {
		return len(ms), nil
	}
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	c.entered <- len(ms)
	<-c.release
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range ms {
		if i == c.failAt && len(ms) > c.failAt {
			c.failAt = -1
			return i, syscall.EIO
		}
		d, err := tmproto.ParseData(m.Buf[:m.N])
		if err != nil {
			return i, err
		}
		c.left = append(c.left, sentData{flow: d.Flow, payload: string(d.Payload)})
	}
	return len(ms), nil
}
func (c *gateConn) ReadBatch([]netio.Message) (int, error) { return 0, io.EOF }
func (c *gateConn) LocalAddr() netip.AddrPort              { return netip.AddrPort{} }
func (c *gateConn) Close() error                           { return nil }

// gatedEdge builds an edge around conn with one destination, alive and
// selected, and batches of queueBatch.
func gatedEdge(t *testing.T, conn netio.Conn) *Edge {
	t.Helper()
	e := newEdge(DefaultEdgeConfig().withDefaults(), conn, queueBatch)
	d := tmproto.Destination{Addr: netip.MustParseAddr("127.0.0.1"), Port: 9, PoP: 1}
	if err := e.SetDestinations([]tmproto.Destination{d}); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	ds := e.dests[destKey(d)]
	ds.setAlive(true)
	e.selected = ds.key
	e.mu.Unlock()
	return e
}

const queueBatch = 32

// waitUntil yields until cond holds; a broken queue fails the test
// after a generous deadline instead of hanging it.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func (e *Edge) queued() int {
	e.q.mu.Lock()
	defer e.q.mu.Unlock()
	return len(e.q.msgs)
}

// coalesce runs the scenario both tests below share: goroutine A's Send
// parks inside the write, goroutine B sends n datagrams on three flows,
// and each parked write is let go only once B has filled the queue or
// finished. It returns A's and B's sends in Send order.
func coalesce(t *testing.T, e *Edge, conn *gateConn, n int) []sentData {
	t.Helper()
	flows := []tmproto.FlowKey{flowKey(1), flowKey(2), flowKey(3)}
	want := []sentData{{flow: flowKey(100), payload: "a"}}
	for i := 0; i < n; i++ {
		want = append(want, sentData{flow: flows[i%len(flows)], payload: fmt.Sprint(i)})
	}
	errA := make(chan error, 1)
	go func() { errA <- e.Send(want[0].flow, []byte(want[0].payload)) }()
	if got := <-conn.entered; got != 1 {
		t.Fatalf("A's write carried %d datagrams, want 1", got)
	}
	doneB := make(chan error, 1)
	go func() {
		for _, d := range want[1:] {
			if err := e.Send(d.flow, []byte(d.payload)); err != nil {
				doneB <- err
				return
			}
		}
		doneB <- nil
	}()
	bDone := false
	for {
		waitUntil(t, "B to fill the queue", func() bool {
			if !bDone {
				select {
				case err := <-doneB:
					if err != nil {
						t.Errorf("B: %v", err)
					}
					bDone = true
				default:
				}
			}
			return bDone || e.queued() == e.batch
		})
		conn.release <- struct{}{}
		select {
		case <-conn.entered:
		case err := <-errA:
			if err != nil {
				t.Fatalf("A: %v", err)
			}
			if !bDone {
				t.Fatal("A returned before B finished")
			}
			return want
		case <-time.After(10 * time.Second):
			t.Fatal("no write and no return after a release")
		}
	}
}

// TestSendCoalescesBehindAFlush: while one Send is inside the write,
// 200 more queue behind it, and the flusher takes them a full queue at
// a time: each leaves exactly once, in Send order, in at most
// ⌈200/batch⌉ + 1 writes.
func TestSendCoalescesBehindAFlush(t *testing.T) {
	conn := newGateConn()
	e := gatedEdge(t, conn)
	const n = 200
	want := coalesce(t, e, conn, n)
	if len(conn.left) != len(want) {
		t.Fatalf("%d datagrams left, want %d", len(conn.left), len(want))
	}
	for i := range want {
		if conn.left[i] != want[i] {
			t.Fatalf("datagram %d: got %+v, want %+v", i, conn.left[i], want[i])
		}
	}
	if max := int(math.Ceil(float64(n)/queueBatch)) + 1; conn.calls > max {
		t.Errorf("%d data writes, want at most %d", conn.calls, max)
	}
	if st := e.Stats(); st.DataSent != n+1 || st.SendErrors != 0 {
		t.Errorf("DataSent %d, SendErrors %d; want %d and 0", st.DataSent, st.SendErrors, n+1)
	}
}

// TestSendQueueCountsAFailedMessage: message 5 of a coalesced batch
// fails; it is the one send error, and the rest of the batch still
// leaves and is counted.
func TestSendQueueCountsAFailedMessage(t *testing.T) {
	conn := newGateConn()
	conn.failAt = 5
	e := gatedEdge(t, conn)
	const n = 200
	want := coalesce(t, e, conn, n)
	// A's lone datagram is the first batch; the first full one is B's
	// sends 0..31, whose message 5 is B's send 5.
	failed := want[1+5]
	want = append(want[:1+5:1+5], want[1+6:]...)
	if len(conn.left) != len(want) {
		t.Fatalf("%d datagrams left, want %d", len(conn.left), len(want))
	}
	for i := range want {
		if conn.left[i] != want[i] {
			t.Fatalf("datagram %d: got %+v, want %+v (failed: %+v)", i, conn.left[i], want[i], failed)
		}
	}
	if st := e.Stats(); st.DataSent != n || st.SendErrors != 1 {
		t.Errorf("DataSent %d, SendErrors %d; want %d and 1", st.DataSent, st.SendErrors, n)
	}
}

// TestCloseFlushesTheQueue: Close, called while a write is in flight
// and more datagrams are queued, returns only after every datagram Send
// accepted has left; a Send after Close is refused.
func TestCloseFlushesTheQueue(t *testing.T) {
	conn := newGateConn()
	e := gatedEdge(t, conn)
	group, err := netio.Listen("127.0.0.1:0", netio.Config{Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.group = group

	errA := make(chan error, 1)
	go func() { errA <- e.Send(flowKey(100), []byte("a")) }()
	<-conn.entered
	const n = 10
	for i := 0; i < n; i++ {
		if err := e.Send(flowKey(uint16(i%3)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	waitUntil(t, "Close to shut the queue", func() bool {
		e.q.mu.Lock()
		defer e.q.mu.Unlock()
		return e.q.closed
	})
	if err := e.Send(flowKey(1), []byte("late")); err == nil {
		t.Error("Send after Close was accepted")
	}
	// Close must not return while the write is parked. The grace period
	// only gives a broken Close time to show itself; a correct one
	// passes whatever the scheduling.
	select {
	case <-closed:
		t.Fatal("Close returned with a write in flight")
	case <-time.After(50 * time.Millisecond):
	}
	conn.release <- struct{}{} // A's datagram
	if got := <-conn.entered; got != n {
		t.Fatalf("the drain carried %d datagrams, want %d", got, n)
	}
	conn.release <- struct{}{}
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if len(conn.left) != n+1 {
		t.Errorf("%d datagrams left, want %d", len(conn.left), n+1)
	}
	if st := e.Stats(); st.DataSent != n+1 || st.SendErrors != 0 {
		t.Errorf("DataSent %d, SendErrors %d; want %d and 0", st.DataSent, st.SendErrors, n+1)
	}
}
