package bgp

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOpenRoundTrip(t *testing.T) {
	o := Open{Version: 4, AS: 65001, HoldTime: 90, BGPID: 0x0a000001}
	b := o.Marshal()
	h, err := parseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgOpen {
		t.Fatalf("type = %v, want OPEN", h.Type)
	}
	if int(h.Len) != len(b) {
		t.Fatalf("header len %d != message len %d", h.Len, len(b))
	}
	got, err := parseOpen(b[19:])
	if err != nil {
		t.Fatal(err)
	}
	if got != o {
		t.Errorf("parseOpen = %+v, want %+v", got, o)
	}
}

func TestOpenRoundTripProperty(t *testing.T) {
	f := func(as, hold uint16, id uint32) bool {
		o := Open{Version: 4, AS: as, HoldTime: hold, BGPID: id}
		got, err := parseOpen(o.Marshal()[19:])
		return err == nil && got == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUpdateRoundTrip(t *testing.T) {
	u := Update{
		Withdrawn: []netip.Prefix{mustPrefix(t, "10.0.0.0/24")},
		Origin:    OriginIGP,
		ASPath:    []uint16{65001, 65002, 65003},
		NextHop:   netip.MustParseAddr("192.0.2.1"),
		MED:       100,
		HasMED:    true,
		LocalPref: 200,
		HasLocal:  true,
		Communities: []uint32{
			65001<<16 | 100,
			65001<<16 | 200,
		},
		NLRI: []netip.Prefix{
			mustPrefix(t, "198.51.100.0/24"),
			mustPrefix(t, "203.0.113.0/25"),
		},
	}
	b, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgUpdate || int(h.Len) != len(b) {
		t.Fatalf("header wrong: %+v for %d bytes", h, len(b))
	}
	got, err := ParseUpdate(b[19:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, u) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, u)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := Update{Withdrawn: []netip.Prefix{mustPrefix(t, "10.1.0.0/16")}}
	b, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseUpdate(b[19:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NLRI) != 0 || len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Errorf("withdraw-only round trip wrong: %+v", got)
	}
}

func TestUpdateVariousPrefixLengths(t *testing.T) {
	for _, s := range []string{"0.0.0.0/0", "128.0.0.0/1", "10.0.0.0/8", "10.20.0.0/15", "10.20.30.0/24", "10.20.30.64/26", "10.20.30.40/32"} {
		u := Update{
			Origin:  OriginIGP,
			ASPath:  []uint16{1},
			NextHop: netip.MustParseAddr("192.0.2.1"),
			NLRI:    []netip.Prefix{mustPrefix(t, s)},
		}
		b, err := u.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		got, err := ParseUpdate(b[19:])
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got.NLRI[0] != u.NLRI[0] {
			t.Errorf("%s: got %v", s, got.NLRI[0])
		}
	}
}

func TestUpdateRejectsIPv6(t *testing.T) {
	u := Update{
		Origin:  OriginIGP,
		ASPath:  []uint16{1},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("2001:db8::/32")},
	}
	if _, err := u.Marshal(); err == nil {
		t.Error("IPv6 NLRI should be rejected")
	}
	u6 := Update{
		Origin:  OriginIGP,
		ASPath:  []uint16{1},
		NextHop: netip.MustParseAddr("2001:db8::1"),
		NLRI:    []netip.Prefix{mustPrefix(t, "10.0.0.0/24")},
	}
	if _, err := u6.Marshal(); err == nil {
		t.Error("IPv6 next hop should be rejected")
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, err := parseHeader(make([]byte, 5)); err != ErrShortMessage {
		t.Errorf("short header err = %v", err)
	}
	b := keepalive()
	b[3] = 0 // corrupt marker
	if _, err := parseHeader(b); err != ErrBadMarker {
		t.Errorf("bad marker err = %v", err)
	}
	b = keepalive()
	b[16], b[17] = 0, 5 // length < 19
	if _, err := parseHeader(b); err != ErrBadLength {
		t.Errorf("bad length err = %v", err)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	// Truncated body.
	if _, err := ParseUpdate([]byte{0}); err == nil {
		t.Error("1-byte body should fail")
	}
	// Withdrawn length exceeding body.
	if _, err := ParseUpdate([]byte{0xff, 0xff, 0, 0}); err == nil {
		t.Error("oversized withdrawn length should fail")
	}
	// Valid masked prefix 10.0.0.0/24 parses fine.
	good := []byte{0, 0, 0, 0, 24, 10, 0, 0}
	if _, err := ParseUpdate(good); err != nil {
		t.Errorf("valid masked prefix rejected: %v", err)
	}
	// /20 encoded with byte 10.0.1 → 10.0.1.0/20 has host bits set.
	bad2 := []byte{0, 0, 0, 0, 20, 10, 0, 1}
	if _, err := ParseUpdate(bad2); err == nil {
		t.Error("prefix with host bits should fail")
	}
	// Prefix length > 32.
	if _, err := ParseUpdate([]byte{0, 0, 0, 0, 33, 10, 0, 0, 0, 0}); err == nil {
		t.Error("prefix length 33 should fail")
	}
}

func TestKeepalive(t *testing.T) {
	b := keepalive()
	h, err := parseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgKeepalive || h.Len != 19 {
		t.Errorf("keepalive header wrong: %+v", h)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := Notification{Code: NotifCease, Subcode: 2, Data: []byte("bye")}
	b := n.Marshal()
	h, err := parseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgNotification {
		t.Fatalf("type = %v", h.Type)
	}
	got, err := parseNotification(b[19:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != n.Code || got.Subcode != n.Subcode || !bytes.Equal(got.Data, n.Data) {
		t.Errorf("got %+v, want %+v", got, n)
	}
}

func TestMarshalHeaderLength(t *testing.T) {
	// Every marshal routine must set the header length to the full
	// message size; parse each and check.
	u := Update{Origin: OriginIGP, ASPath: []uint16{1, 2}, NextHop: netip.MustParseAddr("1.2.3.4"),
		NLRI: []netip.Prefix{mustPrefix(t, "9.9.0.0/16")}}
	ub, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{Open{Version: 4}.Marshal(), ub, keepalive(), Notification{Code: 6}.Marshal()} {
		h, err := parseHeader(b)
		if err != nil {
			t.Fatal(err)
		}
		if int(h.Len) != len(b) {
			t.Errorf("header length %d != actual %d for type %v", h.Len, len(b), h.Type)
		}
	}
}
