// Package netio is the Traffic Manager's UDP datapath substrate: a
// socket-group abstraction that moves datagrams in batches. On Linux
// (amd64/arm64) a group is N `SO_REUSEPORT` sockets sharing one port,
// each read and written with `recvmmsg`/`sendmmsg` so a full batch of
// packets costs one syscall per direction; everywhere else the same
// interface degrades to a portable single-packet implementation over
// net.UDPConn, so the tm package is oblivious to the platform.
//
// The unit of work is a Message: a caller-owned buffer plus the peer
// address. ReadBatch fills as many messages as the socket can supply
// without blocking (at least one — it blocks for the first), WriteBatch
// sends a slice of messages and reports how many left the socket, so
// callers can attribute per-message send errors.
package netio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
)

// MaxDatagram is the buffer size ReadBatch callers should provision per
// message: the largest datagram the TM protocol produces.
const MaxDatagram = 64 * 1024

// Message is one datagram plus its peer address. On read, Buf[:N] is
// the received payload and Addr the sender; on write, Buf[:N] is sent
// to Addr.
type Message struct {
	Buf  []byte
	N    int
	Addr netip.AddrPort
}

// Conn moves batches of datagrams on one socket. Implementations are
// safe for one concurrent reader plus any number of concurrent writers.
type Conn interface {
	// ReadBatch blocks until at least one datagram is available, then
	// fills as many of ms as can be read without blocking again. Each
	// filled Message gets N and Addr set; Buf must be pre-allocated by
	// the caller and is reused across calls.
	ReadBatch(ms []Message) (int, error)
	// WriteBatch sends ms[i].Buf[:ms[i].N] to ms[i].Addr for each i.
	// It returns the number of messages sent; when err != nil, message
	// [sent] is the one that failed and messages after it were not
	// attempted, so the caller can count the error and resume at
	// sent+1.
	WriteBatch(ms []Message) (sent int, err error)
	// LocalAddr is the bound address (shared by every socket in a
	// group).
	LocalAddr() netip.AddrPort
	Close() error
}

// Config shapes a socket group.
type Config struct {
	// Sockets is the SO_REUSEPORT group size. 0 means one socket per
	// CPU (capped at 4); 1 means a single plain socket. Values above 1
	// require reuseport support (Linux here); elsewhere the group
	// silently degrades to one socket.
	Sockets int
	// Batch is the max datagrams moved per syscall. 0 means 32; 1
	// forces the single-packet path even where batching is available
	// (the "portable arm" for benchmarks).
	Batch int
}

func (c Config) normalized() Config {
	if c.Sockets == 0 {
		c.Sockets = runtime.NumCPU()
		if c.Sockets > 4 {
			c.Sockets = 4
		}
	}
	if c.Sockets < 1 {
		c.Sockets = 1
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	if c.Batch > 512 {
		c.Batch = 512
	}
	if !reusePortAvailable {
		c.Sockets = 1
	}
	return c
}

// Group is a set of sockets bound to one local UDP address.
type Group struct {
	conns []Conn
	addr  netip.AddrPort
	cfg   Config
}

// Listen binds a socket group on addr ("127.0.0.1:0" for an ephemeral
// port). With cfg.Sockets > 1 every socket sets SO_REUSEPORT and binds
// the same port, so the kernel fans incoming flows across them by
// 4-tuple hash.
func Listen(addr string, cfg Config) (*Group, error) {
	cfg = cfg.normalized()
	first, err := listenUDP(addr, cfg.Sockets > 1)
	if err != nil {
		return nil, fmt.Errorf("netio: listen %q: %w", addr, err)
	}
	local := first.LocalAddr().(*net.UDPAddr).AddrPort()
	if !local.Addr().Is4() && !local.Addr().Is4In6() {
		// The TM datapath is IPv4; keep the group well-formed anyway.
		cfg.Sockets = 1
	}
	g := &Group{addr: local, cfg: cfg}
	g.conns = append(g.conns, wrapConn(first, cfg))
	for len(g.conns) < cfg.Sockets {
		u, err := listenUDP(local.String(), true)
		if err != nil {
			// Partial groups still work: fall back to what bound.
			break
		}
		g.conns = append(g.conns, wrapConn(u, cfg))
	}
	return g, nil
}

// Conns returns the group's sockets; each wants its own reader
// goroutine.
func (g *Group) Conns() []Conn { return g.conns }

// Addr returns the shared local address.
func (g *Group) Addr() netip.AddrPort { return g.addr }

// Batch returns the normalized per-syscall batch size.
func (g *Group) Batch() int { return g.cfg.Batch }

// Batched reports whether the group uses the multi-message syscall arm.
func (g *Group) Batched() bool { return g.cfg.Batch > 1 && batchAvailable }

// Close closes every socket; concurrent ReadBatch calls return errors.
func (g *Group) Close() error {
	var first error
	for _, c := range g.conns {
		if err := c.Close(); err != nil && first == nil && !errors.Is(err, net.ErrClosed) {
			first = err
		}
	}
	return first
}

// listenUDP binds one UDP socket, optionally with SO_REUSEPORT.
func listenUDP(addr string, reuse bool) (*net.UDPConn, error) {
	if !reuse {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		u, err := net.ListenUDP("udp", ua)
		if err != nil {
			return nil, err
		}
		tune(u)
		return u, nil
	}
	u, err := listenReusePort(addr)
	if err != nil {
		return nil, err
	}
	tune(u)
	return u, nil
}

func tune(u *net.UDPConn) {
	_ = u.SetReadBuffer(1 << 21)
	_ = u.SetWriteBuffer(1 << 21)
}

// wrapConn picks the best implementation for the platform and batch
// size.
func wrapConn(u *net.UDPConn, cfg Config) Conn {
	if cfg.Batch > 1 && batchAvailable {
		if c, err := newBatchConn(u, cfg.Batch); err == nil {
			return c
		}
	}
	return newSingleConn(u)
}

// singleConn is the portable single-packet implementation (and the
// benchmark's baseline arm): one syscall per datagram through the
// standard library.
type singleConn struct {
	u    *net.UDPConn
	addr netip.AddrPort
}

func newSingleConn(u *net.UDPConn) *singleConn {
	return &singleConn{u: u, addr: u.LocalAddr().(*net.UDPAddr).AddrPort()}
}

func (c *singleConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, from, err := c.u.ReadFromUDPAddrPort(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = from
	return 1, nil
}

func (c *singleConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		if _, err := c.u.WriteToUDPAddrPort(ms[i].Buf[:ms[i].N], ms[i].Addr); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

func (c *singleConn) LocalAddr() netip.AddrPort { return c.addr }
func (c *singleConn) Close() error              { return c.u.Close() }
