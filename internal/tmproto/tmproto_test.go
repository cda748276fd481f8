package tmproto

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func key() FlowKey {
	return FlowKey{
		Proto:   6,
		Src:     netip.MustParseAddr("10.1.2.3"),
		Dst:     netip.MustParseAddr("198.51.100.7"),
		SrcPort: 51234,
		DstPort: 443,
	}
}

func TestDataRoundTrip(t *testing.T) {
	payload := []byte("hello painter")
	b, err := AppendData(nil, Data{Flow: key(), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	typ, err := PeekType(b)
	if err != nil || typ != TypeData {
		t.Fatalf("PeekType = %v, %v", typ, err)
	}
	d, err := ParseData(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Flow != key() {
		t.Errorf("flow = %v", d.Flow)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Errorf("payload = %q", d.Payload)
	}
	// Zero-copy: payload must alias the input buffer.
	if len(d.Payload) > 0 && &d.Payload[0] != &b[len(b)-len(payload)] {
		t.Error("ParseData copied the payload")
	}
}

func TestDataAppendsToExisting(t *testing.T) {
	prefix := []byte{1, 2, 3}
	b, err := AppendData(append([]byte(nil), prefix...), Data{Flow: key(), Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b[:3], prefix) {
		t.Error("AppendData clobbered prefix")
	}
	if _, err := ParseData(b[3:]); err != nil {
		t.Error(err)
	}
}

func TestDataRejectsIPv6Flow(t *testing.T) {
	fk := key()
	fk.Src = netip.MustParseAddr("::1")
	if _, err := AppendData(nil, Data{Flow: fk}); err == nil {
		t.Error("IPv6 flow key should fail")
	}
}

func TestProbeRoundTrip(t *testing.T) {
	p := Probe{Seq: 42, SentUnixNano: 1234567890123}
	b := AppendProbe(nil, p, false)
	got, isReply, err := ParseProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if isReply || got != p {
		t.Errorf("got %+v reply=%v", got, isReply)
	}
	rb := AppendProbe(nil, p, true)
	got, isReply, err = ParseProbe(rb)
	if err != nil || !isReply || got != p {
		t.Errorf("reply round trip: %+v %v %v", got, isReply, err)
	}
}

func TestProbeRoundTripProperty(t *testing.T) {
	f := func(seq uint32, nanos int64) bool {
		p := Probe{Seq: seq, SentUnixNano: nanos}
		got, _, err := ParseProbe(AppendProbe(nil, p, false))
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeReplyInPlace(t *testing.T) {
	b := AppendProbe(nil, Probe{Seq: 7, SentUnixNano: 99}, false)
	r, err := MakeReply(b)
	if err != nil {
		t.Fatal(err)
	}
	if &r[0] != &b[0] {
		t.Error("MakeReply must not reallocate")
	}
	p, isReply, err := ParseProbe(r)
	if err != nil || !isReply || p.Seq != 7 || p.SentUnixNano != 99 {
		t.Errorf("reply wrong: %+v %v %v", p, isReply, err)
	}
	// MakeReply on non-probe fails.
	db, _ := AppendData(nil, Data{Flow: key(), Payload: nil})
	if _, err := MakeReply(db); err == nil {
		t.Error("MakeReply on DATA should fail")
	}
}

func TestResolveRoundTrip(t *testing.T) {
	b, err := AppendResolve(nil, Resolve{Service: "teleconf"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseResolve(b)
	if err != nil || r.Service != "teleconf" {
		t.Fatalf("got %+v, %v", r, err)
	}
	// Long service name rejected.
	long := make([]byte, 300)
	if _, err := AppendResolve(nil, Resolve{Service: string(long)}); err == nil {
		t.Error("long service should fail")
	}
}

func TestResolveReplyRoundTrip(t *testing.T) {
	rr := ResolveReply{
		Service: "svc",
		Destinations: []Destination{
			{Addr: netip.MustParseAddr("2.2.2.2"), Port: 4000, PoP: 1},
			{Addr: netip.MustParseAddr("3.3.3.3"), Port: 4001, PoP: 2},
			{Addr: netip.MustParseAddr("1.1.1.1"), Port: 4002, PoP: 0, Anycast: true},
		},
	}
	b, err := AppendResolveReply(nil, rr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResolveReply(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != rr.Service || len(got.Destinations) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range rr.Destinations {
		if got.Destinations[i] != rr.Destinations[i] {
			t.Errorf("dest %d = %+v, want %+v", i, got.Destinations[i], rr.Destinations[i])
		}
	}
}

func TestResolveReplyEmpty(t *testing.T) {
	b, err := AppendResolveReply(nil, ResolveReply{Service: "s"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResolveReply(b)
	if err != nil || len(got.Destinations) != 0 {
		t.Errorf("empty reply: %+v %v", got, err)
	}
}

func TestPeekTypeErrors(t *testing.T) {
	if _, err := PeekType([]byte{1, 2}); err != ErrTooShort {
		t.Errorf("short: %v", err)
	}
	b := AppendProbe(nil, Probe{}, false)
	b[0] = 0
	if _, err := PeekType(b); err != ErrBadMagic {
		t.Errorf("magic: %v", err)
	}
	b = AppendProbe(nil, Probe{}, false)
	b[2] = 99
	if _, err := PeekType(b); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	b = AppendProbe(nil, Probe{}, false)
	b[3] = 200
	if _, err := PeekType(b); err != ErrBadType {
		t.Errorf("type: %v", err)
	}
}

func TestParseTruncated(t *testing.T) {
	full, _ := AppendData(nil, Data{Flow: key(), Payload: []byte("abc")})
	for n := 8; n < 8+13; n++ {
		if _, err := ParseData(full[:n]); err == nil {
			t.Errorf("truncated data at %d parsed", n)
		}
	}
	pb := AppendProbe(nil, Probe{Seq: 1}, false)
	if _, _, err := ParseProbe(pb[:10]); err == nil {
		t.Error("truncated probe parsed")
	}
	rb, _ := AppendResolveReply(nil, ResolveReply{Service: "s", Destinations: []Destination{
		{Addr: netip.MustParseAddr("1.1.1.1")}}})
	for n := 9; n < len(rb); n++ {
		if _, err := ParseResolveReply(rb[:n]); err == nil {
			t.Errorf("truncated resolve reply at %d parsed", n)
		}
	}
}

func TestWrongTypeParsers(t *testing.T) {
	pb := AppendProbe(nil, Probe{}, false)
	if _, err := ParseData(pb); err == nil {
		t.Error("ParseData on probe should fail")
	}
	db, _ := AppendData(nil, Data{Flow: key()})
	if _, _, err := ParseProbe(db); err == nil {
		t.Error("ParseProbe on data should fail")
	}
	if _, err := ParseResolve(db); err == nil {
		t.Error("ParseResolve on data should fail")
	}
	if _, err := ParseResolveReply(db); err == nil {
		t.Error("ParseResolveReply on data should fail")
	}
}

func TestOverhead(t *testing.T) {
	b, err := AppendData(nil, Data{Flow: key(), Payload: make([]byte, 100)})
	if err != nil {
		t.Fatal(err)
	}
	// The encapsulation overhead is the header plus the flow key. The
	// paper cites ~16-21 bytes per 1400; ours should stay comparable.
	overhead := headerLen + flowKeyLen
	if len(b)-100 != overhead {
		t.Errorf("overhead = %d, actual %d", overhead, len(b)-100)
	}
	if overhead > 32 {
		t.Errorf("encapsulation overhead %d bytes too large", overhead)
	}
}
