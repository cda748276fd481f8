//go:build linux && (amd64 || arm64)

package netio

// UDP GSO/GRO: the second half of the batched arm. sendmmsg/recvmmsg
// amortize the user/kernel boundary crossing, but every datagram in an
// mmsg batch still walks the full in-kernel UDP path — on loopback that
// per-packet cost dominates once syscalls are cheap. UDP_SEGMENT turns
// a uniform batch (same destination, same size) into ONE sendmsg whose
// single skb traverses the stack once and is segmented as late as
// possible; a receiver that opted into UDP_GRO gets the segments
// coalesced back into one buffer plus a cmsg carrying the segment
// size. Both paths degrade gracefully: non-uniform batches fall back
// to sendmmsg, non-GSO arrivals carry no UDP_GRO cmsg and are
// delivered whole.

import (
	"net/netip"
	"syscall"
	"unsafe"
)

const (
	solUDP     = 17  // SOL_UDP, absent from the frozen syscall package
	udpSegment = 103 // UDP_SEGMENT: outgoing gso_size sockopt/cmsg
	udpGRO     = 104 // UDP_GRO: opt in to coalesced delivery + cmsg

	// maxGSOSegs mirrors the kernel's UDP_MAX_SEGMENTS.
	maxGSOSegs = 64
	// maxGSOBytes keeps the concatenated payload within one UDP
	// datagram's limits with headroom.
	maxGSOBytes = 63 * 1024
)

// groPending is one coalesced arrival being served incrementally: a
// recvmmsg round can yield far more logical datagrams than the caller's
// batch holds, so segments stay in the conn-owned buffer (valid until
// the next syscall, which only happens once every pending entry is
// drained) and are copied out as ReadBatch calls consume them.
type groPending struct {
	data []byte
	seg  int
	addr netip.AddrPort
	off  int
}

// enableGRO opts the socket into coalesced delivery. Best effort: on
// kernels without UDP_GRO the socket still works, packet-per-packet.
func enableGRO(raw syscall.RawConn) bool {
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
	}); err != nil {
		return false
	}
	return serr == nil
}

// gsoEligible reports whether chunk can leave in one UDP_SEGMENT send:
// all messages to one address, all but the last the same size, the
// last no larger (the kernel's trailing-segment rule).
func gsoEligible(chunk []Message) (seg int, total int, ok bool) {
	if len(chunk) < 2 || len(chunk) > maxGSOSegs {
		return 0, 0, false
	}
	seg = chunk[0].N
	if seg <= 0 {
		return 0, 0, false
	}
	addr := chunk[0].Addr
	for i := range chunk {
		if chunk[i].Addr != addr {
			return 0, 0, false
		}
		n := chunk[i].N
		if i < len(chunk)-1 {
			if n != seg {
				return 0, 0, false
			}
		} else if n <= 0 || n > seg {
			return 0, 0, false
		}
		total += n
	}
	if total > maxGSOBytes {
		return 0, 0, false
	}
	return seg, total, true
}

// writeGSO attempts the fast path. done=false means the chunk was not
// sent (ineligible, or the kernel rejected GSO and the path is now
// disabled) and the caller must fall back to sendmmsg; errors that a
// fallback retry would surface anyway are never swallowed here.
func (c *batchConn) writeGSO(chunk []Message) (sent int, done bool, err error) {
	seg, total, ok := gsoEligible(chunk)
	if !ok {
		return 0, false, nil
	}
	buf := c.gsoBuf[:0]
	for i := range chunk {
		buf = append(buf, chunk[i].Buf[:chunk[i].N]...)
	}
	name := addrPortToSockaddr(chunk[0].Addr)
	var iov syscall.Iovec
	iov.Base = &buf[0]
	iov.SetLen(len(buf))

	oob := c.gsoOOB
	ch := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	ch.Level = solUDP
	ch.Type = udpSegment
	ch.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&oob[syscall.CmsgLen(0)])) = uint16(seg)

	var hdr syscall.Msghdr
	hdr.Name = (*byte)(unsafe.Pointer(&name))
	hdr.Namelen = uint32(unsafe.Sizeof(name))
	hdr.Iov = &iov
	hdr.Iovlen = 1
	hdr.Control = &oob[0]
	hdr.SetControllen(len(oob))

	var wrote int
	var operr syscall.Errno
	werr := c.raw.Write(func(fd uintptr) bool {
		r1, _, errno := syscall.Syscall(sysSendmsg, fd,
			uintptr(unsafe.Pointer(&hdr)), uintptr(syscall.MSG_DONTWAIT))
		if errno == syscall.EAGAIN {
			return false
		}
		operr = errno
		wrote = int(r1)
		return true
	})
	if werr != nil {
		return 0, true, werr
	}
	if operr != 0 {
		switch operr {
		case syscall.EINVAL, syscall.EOPNOTSUPP, syscall.ENOPROTOOPT, syscall.EMSGSIZE:
			// The kernel rejected segmentation itself: disable the fast
			// path for the life of the conn.
			c.gsoOK = false
		}
		// Either way the chunk was not sent; the sendmmsg fallback
		// retries it and reports any persistent per-message error.
		return 0, false, nil
	}
	if wrote != total {
		c.gsoOK = false
		return 0, false, nil
	}
	return len(chunk), true, nil
}

// readGRO is the receive path for GRO-enabled sockets: recvmmsg into
// conn-owned buffers, note each arrival's UDP_GRO segment size, and
// serve segments out of those buffers across as many ReadBatch calls
// as it takes — the next syscall waits until everything pending has
// been consumed, so no per-segment allocation or second copy happens.
func (c *batchConn) readGRO(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if out := c.servePending(ms); out > 0 {
		return out, nil
	}
	n := len(c.gr.hdrs)
	for i := 0; i < n; i++ {
		c.gr.iovs[i].Base = &c.groBufs[i][0]
		c.gr.iovs[i].SetLen(len(c.groBufs[i]))
		c.gr.names[i] = syscall.RawSockaddrInet4{}
		c.gr.hdrs[i].Hdr.Namelen = uint32(unsafe.Sizeof(c.gr.names[i]))
		c.gr.hdrs[i].Hdr.Control = &c.gr.ctrls[i][0]
		c.gr.hdrs[i].Hdr.SetControllen(len(c.gr.ctrls[i]))
		c.gr.hdrs[i].Hdr.Flags = 0
	}
	var got int
	var operr error
	err := c.raw.Read(func(fd uintptr) bool {
		r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&c.gr.hdrs[0])), uintptr(n),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if errno == syscall.EAGAIN {
			return false
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
	c.pend = c.pend[:0]
	c.pendIdx = 0
	for i := 0; i < got; i++ {
		addr := sockaddrToAddrPort(&c.gr.names[i])
		data := c.groBufs[i][:c.gr.hdrs[i].Len]
		seg := groSegSize(c.gr.ctrls[i][:c.gr.hdrs[i].Hdr.Controllen])
		if seg <= 0 || seg > len(data) {
			seg = len(data) // not coalesced: one whole datagram
		}
		c.pend = append(c.pend, groPending{data: data, seg: seg, addr: addr})
	}
	return c.servePending(ms), nil
}

// servePending copies pending segments into the caller's batch, oldest
// first, consuming each coalesced arrival front to back.
func (c *batchConn) servePending(ms []Message) int {
	out := 0
	for out < len(ms) && c.pendIdx < len(c.pend) {
		p := &c.pend[c.pendIdx]
		if len(p.data) == 0 {
			// Zero-length datagrams are legal UDP: deliver one empty
			// message for the arrival.
			ms[out].N = 0
			ms[out].Addr = p.addr
			out++
			c.pendIdx++
			continue
		}
		end := p.off + p.seg
		if end > len(p.data) {
			end = len(p.data)
		}
		ms[out].N = copy(ms[out].Buf, p.data[p.off:end])
		ms[out].Addr = p.addr
		out++
		p.off = end
		if p.off >= len(p.data) {
			c.pendIdx++
		}
	}
	if c.pendIdx >= len(c.pend) {
		c.pend, c.pendIdx = c.pend[:0], 0
	}
	return out
}

// groSegSize walks the control buffer for the UDP_GRO cmsg and returns
// the kernel-reported segment size, or 0 when the datagram was not
// coalesced.
func groSegSize(oob []byte) int {
	for len(oob) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || l > len(oob) {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO {
			data := oob[syscall.CmsgLen(0):l]
			switch {
			case len(data) >= 4:
				return int(*(*int32)(unsafe.Pointer(&data[0])))
			case len(data) >= 2:
				return int(*(*uint16)(unsafe.Pointer(&data[0])))
			}
			return 0
		}
		a := (l + 7) &^ 7 // CMSG_ALIGN on 64-bit
		if a <= 0 || a > len(oob) {
			return 0
		}
		oob = oob[a:]
	}
	return 0
}
