package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// BGP-4 wire protocol (RFC 4271) codec. The Advertisement Orchestrator
// installs computed configurations at PoPs by speaking real BGP UPDATE
// messages to PoP route servers (cmd/painterd), and the failover
// experiment (Fig. 10) counts UPDATE churn the way RIPE RIS collectors
// would, so we implement the subset of the protocol those paths need:
// OPEN, UPDATE with the mandatory path attributes, KEEPALIVE, and
// NOTIFICATION.

// MsgType is the BGP message type code.
type MsgType uint8

// BGP message types (RFC 4271 §4.1).
const (
	MsgOpen         MsgType = 1
	MsgUpdate       MsgType = 2
	MsgNotification MsgType = 3
	MsgKeepalive    MsgType = 4
)

func (t MsgType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

const (
	headerLen = 19
	// MaxMessageLen is the maximum BGP message size (RFC 4271).
	MaxMessageLen = 4096
	markerLen     = 16
)

// Errors returned by the codec.
var (
	ErrShortMessage  = errors.New("bgp: message truncated")
	ErrBadMarker     = errors.New("bgp: header marker not all-ones")
	ErrBadLength     = errors.New("bgp: bad message length")
	ErrBadAttributes = errors.New("bgp: malformed path attributes")
)

// Header is the fixed BGP message header.
type Header struct {
	Len  uint16
	Type MsgType
}

// marshalHeader writes the 19-byte header into dst.
func marshalHeader(dst []byte, bodyLen int, t MsgType) {
	for i := 0; i < markerLen; i++ {
		dst[i] = 0xff
	}
	binary.BigEndian.PutUint16(dst[16:18], uint16(headerLen+bodyLen))
	dst[18] = uint8(t)
}

// parseHeader decodes a header from the first 19 bytes of b.
func parseHeader(b []byte) (Header, error) {
	if len(b) < headerLen {
		return Header{}, ErrShortMessage
	}
	for i := 0; i < markerLen; i++ {
		if b[i] != 0xff {
			return Header{}, ErrBadMarker
		}
	}
	h := Header{
		Len:  binary.BigEndian.Uint16(b[16:18]),
		Type: MsgType(b[18]),
	}
	if h.Len < headerLen || h.Len > MaxMessageLen {
		return Header{}, ErrBadLength
	}
	return h, nil
}

// Open is the BGP OPEN message.
type Open struct {
	Version  uint8
	AS       uint16 // 2-byte AS; AS4 would go in capabilities
	HoldTime uint16
	BGPID    uint32
}

// Marshal serializes the OPEN message with an empty optional-parameters
// section.
func (o Open) Marshal() []byte {
	body := make([]byte, 10)
	body[0] = o.Version
	binary.BigEndian.PutUint16(body[1:3], o.AS)
	binary.BigEndian.PutUint16(body[3:5], o.HoldTime)
	binary.BigEndian.PutUint32(body[5:9], o.BGPID)
	body[9] = 0 // opt parm len
	out := make([]byte, headerLen+len(body))
	marshalHeader(out, len(body), MsgOpen)
	copy(out[headerLen:], body)
	return out
}

// parseOpen decodes an OPEN body (without header).
func parseOpen(body []byte) (Open, error) {
	if len(body) < 10 {
		return Open{}, ErrShortMessage
	}
	o := Open{
		Version:  body[0],
		AS:       binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    binary.BigEndian.Uint32(body[5:9]),
	}
	optLen := int(body[9])
	if len(body) != 10+optLen {
		return Open{}, ErrBadLength
	}
	return o, nil
}

// Origin codes for the ORIGIN path attribute.
const (
	OriginIGP        uint8 = 0
	OriginEGP        uint8 = 1
	OriginIncomplete uint8 = 2
)

// Path attribute type codes.
const (
	AttrOrigin      uint8 = 1
	AttrASPath      uint8 = 2
	AttrNextHop     uint8 = 3
	AttrMED         uint8 = 4
	AttrLocalPref   uint8 = 5
	AttrCommunities uint8 = 8
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// AS_PATH segment types.
const (
	segSet      uint8 = 1
	segSequence uint8 = 2
)

// Update is a BGP UPDATE message carrying withdrawals and/or an
// advertisement of NLRI sharing one set of path attributes.
type Update struct {
	Withdrawn []netip.Prefix
	// Attributes (present when NLRI non-empty):
	Origin      uint8
	ASPath      []uint16
	NextHop     netip.Addr // IPv4
	MED         uint32
	HasMED      bool
	LocalPref   uint32
	HasLocal    bool
	Communities []uint32
	NLRI        []netip.Prefix
}

// Marshal serializes the UPDATE.
func (u Update) Marshal() ([]byte, error) {
	wd, err := marshalPrefixes(u.Withdrawn)
	if err != nil {
		return nil, err
	}
	var attrs []byte
	if len(u.NLRI) > 0 {
		attrs = appendAttr(attrs, AttrOrigin, flagTransitive, []byte{u.Origin})
		attrs = appendAttr(attrs, AttrASPath, flagTransitive, marshalASPath(u.ASPath))
		if !u.NextHop.Is4() {
			return nil, fmt.Errorf("bgp: NEXT_HOP must be IPv4, got %v", u.NextHop)
		}
		nh := u.NextHop.As4()
		attrs = appendAttr(attrs, AttrNextHop, flagTransitive, nh[:])
		if u.HasMED {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], u.MED)
			attrs = appendAttr(attrs, AttrMED, flagOptional, b[:])
		}
		if u.HasLocal {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], u.LocalPref)
			attrs = appendAttr(attrs, AttrLocalPref, flagTransitive, b[:])
		}
		if len(u.Communities) > 0 {
			cb := make([]byte, 4*len(u.Communities))
			for i, c := range u.Communities {
				binary.BigEndian.PutUint32(cb[i*4:], c)
			}
			attrs = appendAttr(attrs, AttrCommunities, flagOptional|flagTransitive, cb)
		}
	}
	nlri, err := marshalPrefixes(u.NLRI)
	if err != nil {
		return nil, err
	}
	bodyLen := 2 + len(wd) + 2 + len(attrs) + len(nlri)
	if headerLen+bodyLen > MaxMessageLen {
		return nil, fmt.Errorf("bgp: update too large (%d bytes)", headerLen+bodyLen)
	}
	out := make([]byte, headerLen+bodyLen)
	marshalHeader(out, bodyLen, MsgUpdate)
	p := out[headerLen:]
	binary.BigEndian.PutUint16(p[0:2], uint16(len(wd)))
	copy(p[2:], wd)
	p = p[2+len(wd):]
	binary.BigEndian.PutUint16(p[0:2], uint16(len(attrs)))
	copy(p[2:], attrs)
	copy(p[2+len(attrs):], nlri)
	return out, nil
}

func appendAttr(dst []byte, typ, flags uint8, val []byte) []byte {
	if len(val) > 255 {
		flags |= flagExtLen
		dst = append(dst, flags, typ, byte(len(val)>>8), byte(len(val)))
	} else {
		dst = append(dst, flags, typ, byte(len(val)))
	}
	return append(dst, val...)
}

func marshalASPath(path []uint16) []byte {
	if len(path) == 0 {
		return nil
	}
	out := make([]byte, 2+2*len(path))
	out[0] = segSequence
	out[1] = byte(len(path))
	for i, a := range path {
		binary.BigEndian.PutUint16(out[2+2*i:], a)
	}
	return out
}

// marshalPrefixes encodes prefixes in BGP NLRI format: 1-byte length in
// bits followed by ceil(len/8) bytes of prefix.
func marshalPrefixes(ps []netip.Prefix) ([]byte, error) {
	var out []byte
	for _, p := range ps {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: only IPv4 NLRI supported, got %v", p)
		}
		bits := p.Bits()
		out = append(out, byte(bits))
		a := p.Addr().As4()
		out = append(out, a[:(bits+7)/8]...)
	}
	return out, nil
}

// ParseUpdate decodes an UPDATE body (without header).
func ParseUpdate(body []byte) (Update, error) {
	var u Update
	if len(body) < 4 {
		return u, ErrShortMessage
	}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	if 2+wdLen+2 > len(body) {
		return u, ErrBadLength
	}
	var err error
	u.Withdrawn, err = parsePrefixes(body[2 : 2+wdLen])
	if err != nil {
		return u, err
	}
	rest := body[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if 2+attrLen > len(rest) {
		return u, ErrBadLength
	}
	if err := u.parseAttrs(rest[2 : 2+attrLen]); err != nil {
		return u, err
	}
	u.NLRI, err = parsePrefixes(rest[2+attrLen:])
	if err != nil {
		return u, err
	}
	return u, nil
}

func (u *Update) parseAttrs(b []byte) error {
	for len(b) > 0 {
		if len(b) < 3 {
			return ErrBadAttributes
		}
		flags, typ := b[0], b[1]
		var alen, off int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return ErrBadAttributes
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			off = 4
		} else {
			alen = int(b[2])
			off = 3
		}
		if len(b) < off+alen {
			return ErrBadAttributes
		}
		val := b[off : off+alen]
		switch typ {
		case AttrOrigin:
			if alen != 1 {
				return ErrBadAttributes
			}
			u.Origin = val[0]
		case AttrASPath:
			path, err := parseASPath(val)
			if err != nil {
				return err
			}
			u.ASPath = path
		case AttrNextHop:
			if alen != 4 {
				return ErrBadAttributes
			}
			u.NextHop = netip.AddrFrom4([4]byte(val))
		case AttrMED:
			if alen != 4 {
				return ErrBadAttributes
			}
			u.MED = binary.BigEndian.Uint32(val)
			u.HasMED = true
		case AttrLocalPref:
			if alen != 4 {
				return ErrBadAttributes
			}
			u.LocalPref = binary.BigEndian.Uint32(val)
			u.HasLocal = true
		case AttrCommunities:
			if alen%4 != 0 {
				return ErrBadAttributes
			}
			for i := 0; i < alen; i += 4 {
				u.Communities = append(u.Communities, binary.BigEndian.Uint32(val[i:]))
			}
		default:
			// Unknown attributes are skipped (we do not re-propagate, so
			// transitive handling is not needed).
		}
		b = b[off+alen:]
	}
	return nil
}

func parseASPath(b []byte) ([]uint16, error) {
	var out []uint16
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, ErrBadAttributes
		}
		segType, n := b[0], int(b[1])
		if segType != segSequence && segType != segSet {
			return nil, ErrBadAttributes
		}
		if len(b) < 2+2*n {
			return nil, ErrBadAttributes
		}
		for i := 0; i < n; i++ {
			out = append(out, binary.BigEndian.Uint16(b[2+2*i:]))
		}
		b = b[2+2*n:]
	}
	return out, nil
}

func parsePrefixes(b []byte) ([]netip.Prefix, error) {
	var out []netip.Prefix
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, fmt.Errorf("bgp: prefix length %d > 32", bits)
		}
		nb := (bits + 7) / 8
		if len(b) < 1+nb {
			return nil, ErrShortMessage
		}
		var a [4]byte
		copy(a[:], b[1:1+nb])
		p := netip.PrefixFrom(netip.AddrFrom4(a), bits)
		if p.Masked() != p {
			return nil, fmt.Errorf("bgp: prefix %v has host bits set", p)
		}
		out = append(out, p)
		b = b[1+nb:]
	}
	return out, nil
}

// keepalive returns a serialized KEEPALIVE message.
func keepalive() []byte {
	out := make([]byte, headerLen)
	marshalHeader(out, 0, MsgKeepalive)
	return out
}

// Notification is a BGP NOTIFICATION message.
type Notification struct {
	Code, Subcode uint8
	Data          []byte
}

// Error codes (RFC 4271 §4.5), the subset we emit.
const (
	NotifCease uint8 = 6
)

// Marshal serializes the NOTIFICATION.
func (n Notification) Marshal() []byte {
	body := make([]byte, 2+len(n.Data))
	body[0], body[1] = n.Code, n.Subcode
	copy(body[2:], n.Data)
	out := make([]byte, headerLen+len(body))
	marshalHeader(out, len(body), MsgNotification)
	copy(out[headerLen:], body)
	return out
}

// parseNotification decodes a NOTIFICATION body.
func parseNotification(body []byte) (Notification, error) {
	if len(body) < 2 {
		return Notification{}, ErrShortMessage
	}
	return Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
}
