package span

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// fakeClock is a deterministic nanosecond clock advancing a fixed step
// per reading.
func fakeClock(step int64) func() int64 {
	var now int64
	return func() int64 {
		now += step
		return now
	}
}

func buildTrace(t *Tracer) {
	root := t.StartRoot("solve", A("scale", "small"))
	for i := 0; i < 3; i++ {
		c := root.StartChild("iteration", A("i", fmt.Sprint(i)))
		g := c.StartChild("propagate")
		g.SetAttr("settled", "42")
		g.Finish()
		c.Finish()
	}
	root.Finish()
}

func TestSameSeedByteIdenticalExport(t *testing.T) {
	var a, b bytes.Buffer
	for i, buf := range []*bytes.Buffer{&a, &b} {
		tr := New(Config{Seed: 7, Process: "test", Clock: fakeClock(1000)})
		buildTrace(tr)
		if err := tr.dump(buf); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if a.Len() == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same-seed exports differ:\n%s\n---\n%s", a.String(), b.String())
	}

	// A different seed must yield different IDs (and thus bytes).
	var c bytes.Buffer
	tr := New(Config{Seed: 8, Process: "test", Clock: fakeClock(1000)})
	buildTrace(tr)
	if err := tr.dump(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical exports")
	}
}

func TestParentLinksAndContext(t *testing.T) {
	tr := New(Config{Seed: 1, Clock: fakeClock(10)})
	root := tr.StartRoot("root")
	child := root.StartChild("child")
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatalf("child trace %x != root trace %x", child.Context().TraceID, root.Context().TraceID)
	}
	child.Finish()
	root.Finish()
	recs := tr.Recorder().Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Finish order: child first.
	if recs[0].Name != "child" || recs[1].Name != "root" {
		t.Fatalf("unexpected order: %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].ParentID != recs[1].SpanID {
		t.Fatalf("child parent %x != root span %x", recs[0].ParentID, recs[1].SpanID)
	}
	if recs[1].ParentID != 0 {
		t.Fatalf("root has parent %x", recs[1].ParentID)
	}
	if recs[0].DurNs <= 0 {
		t.Fatalf("child duration %d", recs[0].DurNs)
	}
}

func TestRemoteStitching(t *testing.T) {
	edge := New(Config{Seed: 2, Clock: fakeClock(5)})
	pop := New(Config{Seed: 3, Clock: fakeClock(5)})
	s := edge.StartRoot("edge.op")
	remote := pop.FromRemote(s.Context(), "pop.op")
	if remote.Context().TraceID != s.Context().TraceID {
		t.Fatalf("remote trace %x != origin %x", remote.Context().TraceID, s.Context().TraceID)
	}
	remote.Finish()
	rec := pop.Recorder().Snapshot()[0]
	if rec.ParentID != s.Context().SpanID {
		t.Fatalf("remote parent %x != origin span %x", rec.ParentID, s.Context().SpanID)
	}
	// Invalid context degrades to a root.
	orphan := pop.FromRemote(Context{}, "pop.solo")
	orphan.Finish()
	recs := pop.Recorder().Snapshot()
	if recs[1].ParentID != 0 || recs[1].TraceID == s.Context().TraceID {
		t.Fatalf("invalid context did not start a fresh root: %+v", recs[1])
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Config{Seed: 4, Sample: 4, Clock: fakeClock(1)})
	kept := 0
	for i := 0; i < 40; i++ {
		s := tr.StartRoot("op")
		// Children inherit the decision via the nil span.
		c := s.StartChild("child")
		c.Finish()
		s.Finish()
		if s != nil {
			kept++
		}
	}
	if kept != 10 {
		t.Fatalf("sampled %d of 40 roots, want 10", kept)
	}
	if got := len(tr.Recorder().Snapshot()); got != 20 {
		t.Fatalf("recorded %d spans, want 20 (10 roots + 10 children)", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartRoot("x", A("k", "v"))
	if s != nil {
		t.Fatal("nil tracer minted a span")
	}
	c := s.StartChild("y")
	c.SetAttr("a", "b")
	c.Finish()
	s.Finish()
	if s.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.Recorder() != nil || tr.Recorder().Snapshot() != nil || tr.Recorder().Cap() != 0 {
		t.Fatal("nil recorder misbehaved")
	}
	var buf bytes.Buffer
	if err := tr.dump(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
	if _, err := ParseChrome(&buf); err != nil {
		t.Fatalf("nil tracer export is not valid trace JSON: %v", err)
	}
}

func TestRingWraparoundAndBoundedMemory(t *testing.T) {
	const size = 8
	tr := New(Config{Seed: 5, Ring: size, Clock: fakeClock(1)})
	rec := tr.Recorder()
	for i := 0; i < 10*size; i++ {
		s := tr.StartRoot(fmt.Sprintf("op-%d", i))
		s.Finish()
	}
	snap := rec.Snapshot()
	if len(snap) != size {
		t.Fatalf("ring holds %d, want capacity %d", len(snap), size)
	}
	if rec.Cap() != size {
		t.Fatalf("ring capacity grew to %d", rec.Cap())
	}
	if rec.Total() != 10*size {
		t.Fatalf("total %d, want %d", rec.Total(), 10*size)
	}
	// Oldest-first snapshot of the most recent `size` spans.
	for i, r := range snap {
		want := fmt.Sprintf("op-%d", 10*size-size+i)
		if r.Name != want {
			t.Fatalf("snap[%d] = %q, want %q", i, r.Name, want)
		}
	}
	rec.Reset()
	if len(rec.Snapshot()) != 0 || rec.Total() != 0 {
		t.Fatal("reset did not empty the ring")
	}
}

// Reset empties the ring without freeing the backing array.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for i := range r.buf {
		r.buf[i] = Record{}
	}
	r.next, r.wrapped, r.total = 0, false, 0
	r.mu.Unlock()
}

func TestChromeSchemaRoundTrip(t *testing.T) {
	tr := New(Config{Seed: 6, Process: "roundtrip", Clock: fakeClock(250)})
	buildTrace(tr)
	var buf bytes.Buffer
	if err := tr.dump(&buf); err != nil {
		t.Fatal(err)
	}
	ct, err := ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("export failed its own schema check: %v\n%s", err, buf.String())
	}
	recs := tr.Recorder().Snapshot()
	// One metadata event plus one complete event per record.
	if len(ct.TraceEvents) != len(recs)+1 {
		t.Fatalf("%d events for %d records", len(ct.TraceEvents), len(recs))
	}
	if ct.TraceEvents[0].Ph != "M" || ct.TraceEvents[0].Args["name"] != "roundtrip" {
		t.Fatalf("missing process_name metadata: %+v", ct.TraceEvents[0])
	}
	for i, r := range recs {
		ev := ct.TraceEvents[i+1]
		if ev.Name != r.Name {
			t.Fatalf("event %d name %q != record %q", i, ev.Name, r.Name)
		}
		if ev.Args["trace_id"] != hexID(r.TraceID) || ev.Args["span_id"] != hexID(r.SpanID) {
			t.Fatalf("event %d ids %v != record %x/%x", i, ev.Args, r.TraceID, r.SpanID)
		}
		if ev.Ts != r.StartNs/1e3 {
			t.Fatalf("event %d ts %d != %d", i, ev.Ts, r.StartNs/1e3)
		}
	}
	// Attr made it into args.
	found := false
	for _, ev := range ct.TraceEvents {
		if ev.Name == "propagate" && ev.Args["settled"] == "42" {
			found = true
		}
	}
	if !found {
		t.Fatal("propagate span lost its settled attr")
	}

	// Re-encoding the parsed trace must also validate (round-trip).
	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChrome(&buf2); err != nil {
		t.Fatalf("empty trace fails schema: %v", err)
	}

	// Corrupted input must be rejected.
	bad := strings.Replace(buf.String(), `"ph": "X"`, `"ph": "Q"`, 1)
	if _, err := ParseChrome(strings.NewReader(bad)); err == nil {
		t.Fatal("ParseChrome accepted an invalid phase")
	}
}

func TestDoubleFinishAndLateAttr(t *testing.T) {
	tr := New(Config{Seed: 9, Clock: fakeClock(3)})
	s := tr.StartRoot("once")
	s.Finish()
	s.SetAttr("late", "ignored")
	s.Finish()
	recs := tr.Recorder().Snapshot()
	if len(recs) != 1 {
		t.Fatalf("double finish recorded %d spans", len(recs))
	}
	for _, a := range recs[0].Attrs {
		if a.Key == "late" {
			t.Fatal("attr added after Finish was recorded")
		}
	}
}
