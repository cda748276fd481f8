package tmproto

import (
	"bytes"
	"net/netip"
	"testing"
)

var traceTestFlow = FlowKey{
	Proto:   17,
	Src:     netip.MustParseAddr("10.0.0.1"),
	Dst:     netip.MustParseAddr("192.0.2.9"),
	SrcPort: 1234, DstPort: 443,
}

func TestProbeTraceRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xa1b2c3d4e5f60718, SpanID: 0x1122334455667788}
	wire := AppendProbe(nil, Probe{Seq: 42, SentUnixNano: 777, Trace: tc}, false)
	if len(wire) != headerLen+traceLen+probeBodyLen {
		t.Fatalf("traced probe length %d", len(wire))
	}
	p, reply, err := ParseProbe(wire)
	if err != nil || reply {
		t.Fatalf("parse traced probe: %v reply=%v", err, reply)
	}
	if p.Trace != tc || p.Seq != 42 || p.SentUnixNano != 777 {
		t.Fatalf("traced probe round trip: %+v", p)
	}

	// MakeReply's in-place type flip must echo the trace block intact —
	// the edge→pop→edge stitch relies on it.
	r, err := MakeReply(wire)
	if err != nil {
		t.Fatalf("MakeReply: %v", err)
	}
	pr, isReply, err := ParseProbe(r)
	if err != nil || !isReply {
		t.Fatalf("parse reply: %v reply=%v", err, isReply)
	}
	if pr.Trace != tc {
		t.Fatalf("reply lost trace context: %+v", pr.Trace)
	}
}

func TestDataTraceRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 7, SpanID: 9}
	payload := []byte("hello through the tunnel")
	wire, err := AppendData(nil, Data{Flow: traceTestFlow, Payload: payload, Trace: tc})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseData(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trace != tc || d.Flow != traceTestFlow || !bytes.Equal(d.Payload, payload) {
		t.Fatalf("traced data round trip: %+v", d)
	}
}

func TestUntracedWireUnchanged(t *testing.T) {
	// Messages without a trace context must serialize exactly as before
	// the flag existed: same length, zero flags word.
	wire := AppendProbe(nil, Probe{Seq: 1, SentUnixNano: 2}, false)
	if len(wire) != headerLen+probeBodyLen {
		t.Fatalf("untraced probe grew to %d bytes", len(wire))
	}
	if wire[4]|wire[5]|wire[6]|wire[7] != 0 {
		t.Fatalf("untraced probe has nonzero flags: % x", wire[4:8])
	}
	dw, err := AppendData(nil, Data{Flow: traceTestFlow, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if overhead := headerLen + flowKeyLen; len(dw) != overhead+1 {
		t.Fatalf("untraced data grew to %d bytes (overhead %d)", len(dw), overhead)
	}
}

func TestHalfZeroTraceNormalizes(t *testing.T) {
	// A flagged block whose span ID is zero does not name a span; parse
	// normalizes it to the zero context so append/parse round trips.
	wire := AppendProbe(nil, Probe{Seq: 3, Trace: TraceContext{TraceID: 5}}, false)
	if len(wire) != headerLen+probeBodyLen {
		t.Fatalf("invalid trace context was serialized: %d bytes", len(wire))
	}
	p, _, err := ParseProbe(wire)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace != (TraceContext{}) {
		t.Fatalf("half-zero context survived: %+v", p.Trace)
	}
}

func TestTraceBlockTruncated(t *testing.T) {
	// Flag set, block missing → ErrTooShort for every parser.
	hdr := []byte{0x50, 0x41, 0x01, 0x02, 0x00, 0x00, 0x00, 0x01, 0xaa, 0xbb}
	if _, _, err := ParseProbe(hdr); err == nil {
		t.Fatal("ParseProbe accepted a truncated trace block")
	}
	hdr[3] = uint8(TypeData)
	if _, err := ParseData(hdr); err == nil {
		t.Fatal("ParseData accepted a truncated trace block")
	}
	hdr[3] = uint8(TypeResolve)
	if _, err := ParseResolve(hdr); err == nil {
		t.Fatal("ParseResolve accepted a truncated trace block")
	}
}
