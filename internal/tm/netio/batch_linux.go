//go:build linux && (amd64 || arm64)

package netio

// The batched arm: recvmmsg/sendmmsg through the socket's RawConn so
// the runtime netpoller still does the blocking (Close() unblocks
// readers, goroutines never pin OS threads) while a ready socket moves
// a whole batch per syscall. The mmsghdr scaffolding (iovecs, sockaddr
// buffers) is allocated once per conn and reused; reads own one set,
// writes own another behind a mutex so a reader and several reply
// writers can share the socket.

import (
	"net"
	"net/netip"
	"sync"
	"syscall"
	"unsafe"
)

const batchAvailable = true

// mmsghdr mirrors struct mmsghdr on 64-bit linux: a msghdr plus the
// per-message byte count filled in by recvmmsg.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// mmsgScratch is one preallocated recvmmsg/sendmmsg argument set. ctrls
// is non-nil only for the GRO read path, which needs per-message cmsg
// space for the kernel's segment-size annotation.
type mmsgScratch struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
	ctrls [][]byte
}

func newScratch(batch int, ctrl bool) *mmsgScratch {
	s := &mmsgScratch{
		hdrs:  make([]mmsghdr, batch),
		iovs:  make([]syscall.Iovec, batch),
		names: make([]syscall.RawSockaddrInet4, batch),
	}
	if ctrl {
		s.ctrls = make([][]byte, batch)
		for i := range s.ctrls {
			s.ctrls[i] = make([]byte, 64)
		}
	}
	for i := range s.hdrs {
		s.hdrs[i].Hdr.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		s.hdrs[i].Hdr.Namelen = uint32(unsafe.Sizeof(s.names[i]))
		s.hdrs[i].Hdr.Iov = &s.iovs[i]
		s.hdrs[i].Hdr.Iovlen = 1
	}
	return s
}

type batchConn struct {
	u    *net.UDPConn
	raw  syscall.RawConn
	addr netip.AddrPort

	batch int
	rd    *mmsgScratch // owned by the single reader (non-GRO arm)

	// GRO read state, all owned by the single reader. Coalesced
	// arrivals land in groBufs and are split/copied out, so these are
	// separate from the caller-buffer-backed rd scratch.
	gro     bool
	gr      *mmsgScratch
	groBufs [][]byte
	pend    []groPending
	pendIdx int

	wmu    sync.Mutex
	wr     *mmsgScratch // shared by writers under wmu
	gsoOK  bool         // UDP_SEGMENT fast path still believed to work
	gsoBuf []byte       // concat scratch for writeGSO, under wmu
	gsoOOB []byte       // cmsg scratch for writeGSO, under wmu
}

func newBatchConn(u *net.UDPConn, batch int) (Conn, error) {
	raw, err := u.SyscallConn()
	if err != nil {
		return nil, err
	}
	ap := u.LocalAddr().(*net.UDPAddr).AddrPort()
	if !ap.Addr().Is4() && !ap.Addr().Is4In6() {
		// IPv6 sockets would need RawSockaddrInet6 plumbing; the TM
		// datapath binds IPv4, so just fall back.
		return nil, syscall.EAFNOSUPPORT
	}
	c := &batchConn{
		u: u, raw: raw, addr: ap, batch: batch,
		rd: newScratch(batch, false), wr: newScratch(batch, false),
		// Both offload halves are probed at run time: a kernel that
		// refuses UDP_SEGMENT clears gsoOK on the first send, one without
		// UDP_GRO leaves gro off, and the plain mmsg paths carry on.
		gsoOK:  true,
		gsoBuf: make([]byte, 0, maxGSOBytes),
		gsoOOB: make([]byte, syscall.CmsgSpace(2)),
	}
	if c.gro = enableGRO(raw); c.gro {
		c.gr = newScratch(batch, true)
		c.pend = make([]groPending, 0, batch)
		c.groBufs = make([][]byte, batch)
		for i := range c.groBufs {
			c.groBufs[i] = make([]byte, MaxDatagram)
		}
	}
	return c, nil
}

func (c *batchConn) LocalAddr() netip.AddrPort { return c.addr }
func (c *batchConn) Close() error              { return c.u.Close() }

// ReadBatch blocks (via the netpoller) until the socket is readable,
// then drains up to len(ms) datagrams in one recvmmsg call. On GRO
// sockets each arrival may itself be a coalesced batch; readGRO splits
// them and stashes any overflow beyond len(ms).
func (c *batchConn) ReadBatch(ms []Message) (int, error) {
	if c.gro {
		return c.readGRO(ms)
	}
	n := len(ms)
	if n > c.batch {
		n = c.batch
	}
	if n == 0 {
		return 0, nil
	}
	for i := 0; i < n; i++ {
		c.rd.iovs[i].Base = &ms[i].Buf[0]
		c.rd.iovs[i].Len = uint64(len(ms[i].Buf))
		c.rd.names[i] = syscall.RawSockaddrInet4{}
		c.rd.hdrs[i].Hdr.Namelen = uint32(unsafe.Sizeof(c.rd.names[i]))
	}
	var got int
	var operr error
	err := c.raw.Read(func(fd uintptr) bool {
		r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&c.rd.hdrs[0])), uintptr(n),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if errno == syscall.EAGAIN {
			return false // not readable after all: re-arm the poller
		}
		if errno != 0 {
			operr = errno
		} else {
			got = int(r1)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if operr != nil {
		return 0, operr
	}
	for i := 0; i < got; i++ {
		ms[i].N = int(c.rd.hdrs[i].Len)
		ms[i].Addr = sockaddrToAddrPort(&c.rd.names[i])
	}
	return got, nil
}

// WriteBatch sends up to batch messages per sendmmsg call, looping over
// larger slices. On a per-message error it reports how many messages
// left the socket so the caller can attribute the failure to ms[sent].
func (c *batchConn) WriteBatch(ms []Message) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	sent := 0
	for sent < len(ms) {
		n := len(ms) - sent
		if n > c.batch {
			n = c.batch
		}
		chunk := ms[sent : sent+n]
		if c.gsoOK {
			k, done, err := c.writeGSO(chunk)
			if done {
				sent += k
				if err != nil {
					return sent, err
				}
				continue
			}
		}
		for i := range chunk {
			c.wr.iovs[i].Base = &chunk[i].Buf[0]
			c.wr.iovs[i].Len = uint64(chunk[i].N)
			c.wr.names[i] = addrPortToSockaddr(chunk[i].Addr)
			c.wr.hdrs[i].Hdr.Namelen = uint32(unsafe.Sizeof(c.wr.names[i]))
		}
		var wrote int
		var operr error
		err := c.raw.Write(func(fd uintptr) bool {
			r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&c.wr.hdrs[0])), uintptr(n),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			if errno == syscall.EAGAIN {
				return false
			}
			if errno != 0 {
				operr = errno
			} else {
				wrote = int(r1)
			}
			return true
		})
		if err != nil {
			return sent, err
		}
		if operr != nil {
			return sent + wrote, operr
		}
		if wrote == 0 {
			// Defensive: sendmmsg never legitimately returns 0 without
			// an error, but never spin here.
			return sent, syscall.EIO
		}
		sent += wrote
	}
	return sent, nil
}

func sockaddrToAddrPort(sa *syscall.RawSockaddrInet4) netip.AddrPort {
	port := uint16(sa.Port>>8) | uint16(sa.Port&0xff)<<8 // network → host order
	return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
}

func addrPortToSockaddr(ap netip.AddrPort) syscall.RawSockaddrInet4 {
	a := ap.Addr()
	if a.Is4In6() {
		a = a.Unmap()
	}
	port := ap.Port()
	return syscall.RawSockaddrInet4{
		Family: syscall.AF_INET,
		Port:   port<<8 | port>>8, // host → network order
		Addr:   a.As4(),
	}
}
