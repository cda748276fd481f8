package bgp

// Fuzz targets for the BGP wire codec: parsers must never panic on
// attacker-controlled bytes (the route server feeds them raw socket
// reads), and parse→marshal→parse must be the identity for every
// message that parses.

import (
	"net/netip"
	"reflect"
	"testing"
)

func FuzzParseHeader(f *testing.F) {
	f.Add(keepalive())
	f.Add([]byte{})
	f.Add(make([]byte, headerLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := parseHeader(b)
		if err != nil {
			return
		}
		if h.Len < headerLen || h.Len > MaxMessageLen {
			t.Fatalf("accepted header with bad length %d", h.Len)
		}
	})
}

func FuzzParseOpen(f *testing.F) {
	f.Add(Open{Version: 4, AS: 64500, HoldTime: 90, BGPID: 0x0a000001}.Marshal()[headerLen:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		o, err := parseOpen(body)
		if err != nil {
			return
		}
		// Re-marshal (empty optional parameters) and re-parse.
		o2, err := parseOpen(o.Marshal()[headerLen:])
		if err != nil || o2 != o {
			t.Fatalf("Open round trip changed: %+v -> %+v (%v)", o, o2, err)
		}
	})
}

func FuzzParseNotification(f *testing.F) {
	f.Add(Notification{Code: NotifCease, Subcode: 1, Data: []byte("bye")}.Marshal()[headerLen:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		n, err := parseNotification(body)
		if err != nil {
			return
		}
		n2, err := parseNotification(n.Marshal()[headerLen:])
		if err != nil || !reflect.DeepEqual(n, n2) {
			t.Fatalf("Notification round trip changed: %+v -> %+v (%v)", n, n2, err)
		}
	})
}

func FuzzParseUpdate(f *testing.F) {
	mk := func(u Update) []byte {
		b, err := u.Marshal()
		if err != nil {
			panic(err)
		}
		return b[headerLen:]
	}
	f.Add(mk(Update{
		Origin:  0,
		ASPath:  []uint16{64500, 65001},
		NextHop: netip.MustParseAddr("10.0.0.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	}))
	f.Add(mk(Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
	}))
	f.Add(mk(Update{
		Origin:      1,
		ASPath:      []uint16{64500},
		NextHop:     netip.MustParseAddr("10.0.0.2"),
		MED:         50,
		HasMED:      true,
		LocalPref:   200,
		HasLocal:    true,
		Communities: []uint32{64500<<16 | 77},
		NLRI: []netip.Prefix{
			netip.MustParsePrefix("198.51.100.0/25"),
			netip.MustParsePrefix("192.0.2.0/24"),
		},
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		u, err := ParseUpdate(body)
		if err != nil {
			return
		}
		out, err := u.Marshal()
		if err != nil {
			// Parsed but not re-serializable (e.g. attribute combination
			// we never emit, like NLRI with a missing next hop). The
			// parser tolerating it is fine; nothing more to check.
			return
		}
		u2, err := ParseUpdate(out[headerLen:])
		if err != nil {
			t.Fatalf("marshaled update does not parse: %v", err)
		}
		if !updatesEquivalent(u, u2) {
			t.Fatalf("Update round trip changed:\n  %+v\n  %+v", u, u2)
		}
	})
}

// updatesEquivalent compares the fields Marshal encodes. Attribute
// fields only travel alongside NLRI, so they are compared only then.
func updatesEquivalent(a, b Update) bool {
	if !prefixesEqual(a.Withdrawn, b.Withdrawn) || !prefixesEqual(a.NLRI, b.NLRI) {
		return false
	}
	if len(a.NLRI) == 0 {
		return true
	}
	if a.Origin != b.Origin || a.NextHop != b.NextHop ||
		a.HasMED != b.HasMED || (a.HasMED && a.MED != b.MED) ||
		a.HasLocal != b.HasLocal || (a.HasLocal && a.LocalPref != b.LocalPref) {
		return false
	}
	if len(a.ASPath) != len(b.ASPath) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	if len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	return true
}

func prefixesEqual(a, b []netip.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
