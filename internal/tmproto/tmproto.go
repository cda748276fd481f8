// Package tmproto defines the Traffic Manager wire protocol spoken
// between TM-Edges and TM-PoPs over UDP tunnels (§3.2, Appendix D):
// encapsulated client packets, keepalive probes used for RTT estimation
// and failure detection, and the control messages a TM-Edge uses to
// resolve the set of available tunnel destinations.
//
// All messages share a fixed 8-byte header. Encoding is big-endian.
// Decoding is zero-copy: payload accessors return sub-slices of the
// input buffer.
package tmproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Magic identifies Traffic Manager datagrams.
const Magic uint16 = 0x5041 // "PA"

// Version is the protocol version.
const Version uint8 = 1

// MsgType discriminates datagram contents.
type MsgType uint8

// Message types.
const (
	// TypeData carries an encapsulated client packet.
	TypeData MsgType = 1
	// TypeProbe is an edge→PoP keepalive/RTT probe.
	TypeProbe MsgType = 2
	// TypeProbeReply echoes a probe back.
	TypeProbeReply MsgType = 3
	// TypeResolve asks a TM-PoP for the available destination set for a
	// service.
	TypeResolve MsgType = 4
	// TypeResolveReply lists available destinations.
	TypeResolveReply MsgType = 5
)

func (t MsgType) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeProbe:
		return "PROBE"
	case TypeProbeReply:
		return "PROBE-REPLY"
	case TypeResolve:
		return "RESOLVE"
	case TypeResolveReply:
		return "RESOLVE-REPLY"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// headerLen is the fixed header size: magic(2) version(1) type(1)
// flags(4). The flags word was reserved-zero through protocol
// version 1 PR 3; bit 0 now marks an optional trace-context block.
const headerLen = 8

// flagTrace marks a 16-byte TraceContext block inserted directly after
// the header, before the type-specific body. Decoders that predate the
// flag reject flagged datagrams on length/shape grounds rather than
// misreading them, and MakeReply (a type-byte flip) echoes the block
// untouched — which is exactly how edge→pop→edge probe round trips
// stitch into one trace with zero PoP-side work.
const flagTrace uint32 = 1 << 0

// traceLen is TraceID(8) + SpanID(8).
const traceLen = 16

// TraceContext carries span identity (see internal/obs/span) across
// the tunnel so both tunnel ends record into one causal trace. The
// zero value means "no trace" and costs nothing on the wire.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a span. The span ID stream
// never emits zero, so a half-zero context is treated as absent (and
// normalized to the zero value on parse, preserving the append/parse
// round-trip property).
func (c TraceContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// Codec errors.
var (
	ErrTooShort   = errors.New("tmproto: datagram too short")
	ErrBadMagic   = errors.New("tmproto: bad magic")
	ErrBadVersion = errors.New("tmproto: unsupported version")
	ErrBadType    = errors.New("tmproto: unknown message type")
)

// putHeader writes the common header.
func putHeader(dst []byte, t MsgType) {
	binary.BigEndian.PutUint16(dst[0:2], Magic)
	dst[2] = Version
	dst[3] = uint8(t)
	binary.BigEndian.PutUint32(dst[4:8], 0)
}

// appendHeader appends the header plus, when tc is valid, the flagged
// trace block; it returns the updated slice.
func appendHeader(dst []byte, t MsgType, tc TraceContext) []byte {
	off := len(dst)
	n := headerLen
	if tc.Valid() {
		n += traceLen
	}
	dst = append(dst, make([]byte, n)...)
	putHeader(dst[off:], t)
	if tc.Valid() {
		binary.BigEndian.PutUint32(dst[off+4:off+8], flagTrace)
		binary.BigEndian.PutUint64(dst[off+headerLen:], tc.TraceID)
		binary.BigEndian.PutUint64(dst[off+headerLen+8:], tc.SpanID)
	}
	return dst
}

// parseTrace returns the trace context (zero when absent) and the
// offset where the type-specific body begins. The caller must already
// have validated the header via PeekType.
func parseTrace(b []byte) (TraceContext, int, error) {
	if binary.BigEndian.Uint32(b[4:8])&flagTrace == 0 {
		return TraceContext{}, headerLen, nil
	}
	if len(b) < headerLen+traceLen {
		return TraceContext{}, 0, ErrTooShort
	}
	tc := TraceContext{
		TraceID: binary.BigEndian.Uint64(b[headerLen:]),
		SpanID:  binary.BigEndian.Uint64(b[headerLen+8:]),
	}
	if !tc.Valid() {
		tc = TraceContext{} // half-zero contexts normalize to absent
	}
	return tc, headerLen + traceLen, nil
}

// PeekType validates the header and returns the message type.
func PeekType(b []byte) (MsgType, error) {
	if len(b) < headerLen {
		return 0, ErrTooShort
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return 0, ErrBadMagic
	}
	if b[2] != Version {
		return 0, ErrBadVersion
	}
	t := MsgType(b[3])
	if t < TypeData || t > TypeResolveReply {
		return 0, ErrBadType
	}
	return t, nil
}

// FlowKey is the inner 5-tuple the TM-PoP uses for its Known Flows NAT
// table (Appendix D).
type FlowKey struct {
	Proto    uint8
	Src, Dst netip.Addr // IPv4
	SrcPort  uint16
	DstPort  uint16
}

// flowKeyLen is proto(1) src(4) dst(4) sport(2) dport(2).
const flowKeyLen = 13

// Valid reports whether the key is well-formed (IPv4 addresses).
func (k FlowKey) Valid() bool { return k.Src.Is4() && k.Dst.Is4() }

func (k FlowKey) String() string {
	return fmt.Sprintf("%d:%s:%d->%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

func (k FlowKey) marshal(dst []byte) {
	dst[0] = k.Proto
	src := k.Src.As4()
	copy(dst[1:5], src[:])
	d := k.Dst.As4()
	copy(dst[5:9], d[:])
	binary.BigEndian.PutUint16(dst[9:11], k.SrcPort)
	binary.BigEndian.PutUint16(dst[11:13], k.DstPort)
}

func parseFlowKey(b []byte) (FlowKey, error) {
	if len(b) < flowKeyLen {
		return FlowKey{}, ErrTooShort
	}
	return FlowKey{
		Proto:   b[0],
		Src:     netip.AddrFrom4([4]byte(b[1:5])),
		Dst:     netip.AddrFrom4([4]byte(b[5:9])),
		SrcPort: binary.BigEndian.Uint16(b[9:11]),
		DstPort: binary.BigEndian.Uint16(b[11:13]),
	}, nil
}

// Data is an encapsulated client packet. Trace, when valid, rides the
// wire as the flagged trace block — the edge sets it on the first
// packet after a re-pin so the PoP's flow re-home stitches into the
// failover trace.
type Data struct {
	Flow    FlowKey
	Payload []byte // zero-copy view on decode
	Trace   TraceContext
}

// AppendData serializes a data message, appending to dst.
func AppendData(dst []byte, d Data) ([]byte, error) {
	if !d.Flow.Valid() {
		return nil, fmt.Errorf("tmproto: invalid flow key %v", d.Flow)
	}
	dst = appendHeader(dst, TypeData, d.Trace)
	dst = append(dst, make([]byte, flowKeyLen)...)
	d.Flow.marshal(dst[len(dst)-flowKeyLen:])
	return append(dst, d.Payload...), nil
}

// ParseData decodes a TypeData datagram (header included).
func ParseData(b []byte) (Data, error) {
	t, err := PeekType(b)
	if err != nil {
		return Data{}, err
	}
	if t != TypeData {
		return Data{}, fmt.Errorf("tmproto: expected DATA, got %v", t)
	}
	tc, body, err := parseTrace(b)
	if err != nil {
		return Data{}, err
	}
	fk, err := parseFlowKey(b[body:])
	if err != nil {
		return Data{}, err
	}
	return Data{Flow: fk, Payload: b[body+flowKeyLen:], Trace: tc}, nil
}

// Probe is a keepalive/RTT probe. The edge stamps SentUnixNano; the PoP
// echoes the message unchanged apart from flipping the type, so the
// edge computes RTT on reply receipt without any clock agreement. A
// valid Trace rides the flagged trace block and is echoed back with
// the rest of the datagram, stitching the PoP into the probe's trace.
type Probe struct {
	Seq          uint32
	SentUnixNano int64
	Trace        TraceContext
}

const probeBodyLen = 12

// AppendProbe serializes a probe (or probe reply when reply is true).
func AppendProbe(dst []byte, p Probe, reply bool) []byte {
	t := TypeProbe
	if reply {
		t = TypeProbeReply
	}
	dst = appendHeader(dst, t, p.Trace)
	off := len(dst)
	dst = append(dst, make([]byte, probeBodyLen)...)
	binary.BigEndian.PutUint32(dst[off:], p.Seq)
	binary.BigEndian.PutUint64(dst[off+4:], uint64(p.SentUnixNano))
	return dst
}

// ParseProbe decodes a probe or probe reply.
func ParseProbe(b []byte) (Probe, bool, error) {
	t, err := PeekType(b)
	if err != nil {
		return Probe{}, false, err
	}
	if t != TypeProbe && t != TypeProbeReply {
		return Probe{}, false, fmt.Errorf("tmproto: expected PROBE(-REPLY), got %v", t)
	}
	tc, body, err := parseTrace(b)
	if err != nil {
		return Probe{}, false, err
	}
	if len(b) < body+probeBodyLen {
		return Probe{}, false, ErrTooShort
	}
	return Probe{
		Seq:          binary.BigEndian.Uint32(b[body:]),
		SentUnixNano: int64(binary.BigEndian.Uint64(b[body+4:])),
		Trace:        tc,
	}, t == TypeProbeReply, nil
}

// MakeReply converts a received probe datagram into its reply in place
// (the only change is the type byte), returning the same slice.
func MakeReply(b []byte) ([]byte, error) {
	t, err := PeekType(b)
	if err != nil {
		return nil, err
	}
	if t != TypeProbe {
		return nil, fmt.Errorf("tmproto: MakeReply on %v", t)
	}
	b[3] = uint8(TypeProbeReply)
	return b, nil
}

// Destination is one tunnel destination a TM-PoP advertises: an address
// in one of the PAINTER prefixes plus the PoP that terminates it.
type Destination struct {
	Addr netip.Addr // IPv4 tunnel address
	Port uint16
	PoP  uint32
	// Anycast marks the always-available anycast destination.
	Anycast bool
	// GRE asks the edge to speak the GRE wire mode to this destination
	// (see gre.go). Absent ⇒ native framing.
	GRE bool
}

// Destination flag bits (the trailing byte of each wire record; the
// byte was 0/1 for anycast through PR 9, so bit 0 keeps that meaning).
const (
	destFlagAnycast = 1 << 0
	destFlagGRE     = 1 << 1
)

const destLen = 4 + 2 + 4 + 1

// Resolve asks for the destination set of a service.
type Resolve struct {
	Service string
}

// AppendResolve serializes a resolve request.
func AppendResolve(dst []byte, r Resolve) ([]byte, error) {
	if len(r.Service) > 255 {
		return nil, fmt.Errorf("tmproto: service name too long (%d)", len(r.Service))
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+1)...)
	putHeader(dst[off:], TypeResolve)
	dst[off+headerLen] = uint8(len(r.Service))
	return append(dst, r.Service...), nil
}

// ParseResolve decodes a resolve request.
func ParseResolve(b []byte) (Resolve, error) {
	t, err := PeekType(b)
	if err != nil {
		return Resolve{}, err
	}
	if t != TypeResolve {
		return Resolve{}, fmt.Errorf("tmproto: expected RESOLVE, got %v", t)
	}
	// Control messages accept (and skip) the trace block so the flag is
	// uniform across types, but never carry one themselves.
	_, body, err := parseTrace(b)
	if err != nil {
		return Resolve{}, err
	}
	if len(b) < body+1 {
		return Resolve{}, ErrTooShort
	}
	n := int(b[body])
	if len(b) < body+1+n {
		return Resolve{}, ErrTooShort
	}
	return Resolve{Service: string(b[body+1 : body+1+n])}, nil
}

// ResolveReply lists destinations.
type ResolveReply struct {
	Service      string
	Destinations []Destination
}

// AppendResolveReply serializes a resolve reply.
func AppendResolveReply(dst []byte, r ResolveReply) ([]byte, error) {
	if len(r.Service) > 255 {
		return nil, fmt.Errorf("tmproto: service name too long")
	}
	if len(r.Destinations) > 65535 {
		return nil, fmt.Errorf("tmproto: too many destinations")
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+1)...)
	putHeader(dst[off:], TypeResolveReply)
	dst[off+headerLen] = uint8(len(r.Service))
	dst = append(dst, r.Service...)
	var cnt [2]byte
	binary.BigEndian.PutUint16(cnt[:], uint16(len(r.Destinations)))
	dst = append(dst, cnt[:]...)
	for _, d := range r.Destinations {
		if !d.Addr.Is4() {
			return nil, fmt.Errorf("tmproto: destination %v not IPv4", d.Addr)
		}
		var buf [destLen]byte
		a := d.Addr.As4()
		copy(buf[0:4], a[:])
		binary.BigEndian.PutUint16(buf[4:6], d.Port)
		binary.BigEndian.PutUint32(buf[6:10], d.PoP)
		if d.Anycast {
			buf[10] |= destFlagAnycast
		}
		if d.GRE {
			buf[10] |= destFlagGRE
		}
		dst = append(dst, buf[:]...)
	}
	return dst, nil
}

// ParseResolveReply decodes a resolve reply.
func ParseResolveReply(b []byte) (ResolveReply, error) {
	t, err := PeekType(b)
	if err != nil {
		return ResolveReply{}, err
	}
	if t != TypeResolveReply {
		return ResolveReply{}, fmt.Errorf("tmproto: expected RESOLVE-REPLY, got %v", t)
	}
	_, body, err := parseTrace(b)
	if err != nil {
		return ResolveReply{}, err
	}
	if len(b) < body+1 {
		return ResolveReply{}, ErrTooShort
	}
	n := int(b[body])
	p := body + 1
	if len(b) < p+n+2 {
		return ResolveReply{}, ErrTooShort
	}
	out := ResolveReply{Service: string(b[p : p+n])}
	p += n
	cnt := int(binary.BigEndian.Uint16(b[p : p+2]))
	p += 2
	if len(b) < p+cnt*destLen {
		return ResolveReply{}, ErrTooShort
	}
	for i := 0; i < cnt; i++ {
		q := p + i*destLen
		out.Destinations = append(out.Destinations, Destination{
			Addr:    netip.AddrFrom4([4]byte(b[q : q+4])),
			Port:    binary.BigEndian.Uint16(b[q+4 : q+6]),
			PoP:     binary.BigEndian.Uint32(b[q+6 : q+10]),
			Anycast: b[q+10]&destFlagAnycast != 0,
			GRE:     b[q+10]&destFlagGRE != 0,
		})
	}
	return out, nil
}
