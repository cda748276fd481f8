// Package emul provides the packet-level substrate for the Traffic
// Manager prototype: UDP relays that impose configurable one-way delay,
// loss, and failure on real datagrams over loopback. The Fig. 10
// failover experiment runs TM-Edge and TM-PoPs over these links so the
// probe/failover state machine is exercised with real sockets and real
// time, only the wide-area latency being synthetic.
package emul

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Link is a bidirectional UDP relay with injected latency.
//
// Clients send datagrams to Addr(); the link forwards them to the target
// after half the configured RTT, and relays the target's replies back to
// the originating client with the same delay. Each client address gets
// its own upstream socket so the target sees distinct peers.
type Link struct {
	target *net.UDPAddr
	front  *net.UDPConn

	delayNanos atomic.Int64 // one-way delay
	down       atomic.Bool
	lossPct    atomic.Int64 // 0..100
	filter     atomic.Pointer[func(pkt []byte) bool]

	mu    sync.Mutex
	paths map[string]*net.UDPConn // client addr -> upstream socket
	wg    sync.WaitGroup
	done  chan struct{}
	rng   *rand.Rand
	rngMu sync.Mutex
}

// NewLink starts a relay toward target with the given one-way delay.
func NewLink(target string, oneWayDelay time.Duration, seed int64) (*Link, error) {
	ta, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, fmt.Errorf("emul: resolve target: %w", err)
	}
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("emul: listen: %w", err)
	}
	_ = front.SetReadBuffer(1 << 20)
	_ = front.SetWriteBuffer(1 << 20)
	l := &Link{
		target: ta,
		front:  front,
		paths:  make(map[string]*net.UDPConn),
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}
	l.delayNanos.Store(int64(oneWayDelay))
	l.wg.Add(1)
	go l.frontLoop()
	return l, nil
}

// Addr returns the address clients should send to.
func (l *Link) Addr() string { return l.front.LocalAddr().String() }

// SetDelay changes the one-way delay.
func (l *Link) SetDelay(d time.Duration) { l.delayNanos.Store(int64(d)) }

// delay returns the current one-way delay.
func (l *Link) delay() time.Duration { return time.Duration(l.delayNanos.Load()) }

// SetDown drops all traffic when true (models prefix withdrawal / PoP
// failure).
func (l *Link) SetDown(down bool) { l.down.Store(down) }

// SetLossPct sets random loss percentage (0-100) in each direction.
func (l *Link) SetLossPct(pct int) {
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	l.lossPct.Store(int64(pct))
}

// SetFilter installs a client→target forwarding predicate: datagrams
// for which f returns false are dropped silently at the link front,
// before any delay or relay work is scheduled. A nil f forwards
// everything. Experiments use this to suppress one traffic class (for
// example bulk data while keeping probes alive) without modeling it as
// loss, which would also hit the class being measured.
func (l *Link) SetFilter(f func(pkt []byte) bool) {
	if f == nil {
		l.filter.Store(nil)
		return
	}
	l.filter.Store(&f)
}

// Rebind drops every upstream socket, modeling a NAT device expiring or
// rebuilding its port mappings (reboot, conntrack flush, carrier-grade
// NAT churn). The next datagram from each client is forwarded through a
// freshly bound socket, so the target sees the same inner flows arrive
// from brand-new outer source ports. Packets already in flight on the
// old sockets are lost, as they would be through a real NAT reset.
// Returns the number of mappings dropped.
func (l *Link) Rebind() int {
	l.mu.Lock()
	n := len(l.paths)
	for k, c := range l.paths {
		_ = c.Close()
		delete(l.paths, k)
	}
	l.mu.Unlock()
	return n
}

// Close stops the relay.
func (l *Link) Close() error {
	select {
	case <-l.done:
		return nil
	default:
	}
	close(l.done)
	err := l.front.Close()
	l.mu.Lock()
	for _, c := range l.paths {
		_ = c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

func (l *Link) drop() bool {
	if l.down.Load() {
		return true
	}
	pct := l.lossPct.Load()
	if pct <= 0 {
		return false
	}
	l.rngMu.Lock()
	defer l.rngMu.Unlock()
	return l.rng.Int63n(100) < pct
}

func (l *Link) frontLoop() {
	defer l.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, client, err := l.front.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if l.drop() {
			continue
		}
		if f := l.filter.Load(); f != nil && !(*f)(buf[:n]) {
			continue
		}
		pkt := append([]byte(nil), buf[:n]...)
		up, err := l.upstreamFor(client)
		if err != nil {
			continue
		}
		delay := l.delay()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			select {
			case <-time.After(delay):
			case <-l.done:
				return
			}
			_, _ = up.Write(pkt)
		}()
	}
}

// upstreamFor returns (creating if needed) the upstream socket bound to
// one client, with its return-path loop.
func (l *Link) upstreamFor(client *net.UDPAddr) (*net.UDPConn, error) {
	key := client.String()
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.paths[key]; ok {
		return c, nil
	}
	up, err := net.DialUDP("udp", nil, l.target)
	if err != nil {
		return nil, err
	}
	_ = up.SetReadBuffer(1 << 20)
	_ = up.SetWriteBuffer(1 << 20)
	l.paths[key] = up
	clientCopy := *client
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		buf := make([]byte, 64*1024)
		for {
			n, err := up.Read(buf)
			if err != nil {
				return
			}
			if l.drop() {
				continue
			}
			pkt := append([]byte(nil), buf[:n]...)
			delay := l.delay()
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				select {
				case <-time.After(delay):
				case <-l.done:
					return
				}
				_, _ = l.front.WriteToUDP(pkt, &clientCopy)
			}()
		}
	}()
	return up, nil
}
