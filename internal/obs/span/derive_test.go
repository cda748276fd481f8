package span

import (
	"testing"
)

// Derive gives each tenant its own ID stream and base attrs while all
// spans land in one shared flight recorder.
func TestDeriveSharedRecorderAndAttrs(t *testing.T) {
	clock := int64(0)
	parent := New(Config{Seed: 1, Process: "test", Clock: func() int64 { clock++; return clock }})
	d1 := parent.Derive(100, A("tenant", "red"))
	d2 := parent.Derive(200, A("tenant", "blue"))

	parent.StartRoot("parent-op").Finish()
	s1 := d1.StartRoot("op", A("k", "v"))
	s1.Finish()
	d2.StartRoot("op").Finish()

	recs := parent.Recorder().Snapshot()
	if len(recs) != 3 {
		t.Fatalf("shared recorder holds %d spans, want 3", len(recs))
	}
	byTenant := map[string]int{}
	for _, r := range recs {
		for _, a := range r.Attrs {
			if a.Key == "tenant" {
				byTenant[a.Value]++
			}
		}
	}
	if byTenant["red"] != 1 || byTenant["blue"] != 1 {
		t.Errorf("tenant attrs = %v", byTenant)
	}
	// Caller attrs ride along after the base attrs.
	var redAttrs []Attr
	for _, r := range recs {
		for _, a := range r.Attrs {
			if a.Key == "tenant" && a.Value == "red" {
				redAttrs = r.Attrs
			}
		}
	}
	if len(redAttrs) != 2 || redAttrs[0].Key != "tenant" || redAttrs[1].Key != "k" {
		t.Errorf("red span attrs = %v", redAttrs)
	}
}

func TestDeriveDeterministicDistinctIDs(t *testing.T) {
	mk := func() (uint64, uint64) {
		parent := New(Config{Seed: 7, Clock: func() int64 { return 0 }})
		a := parent.Derive(100).StartRoot("a")
		b := parent.Derive(200).StartRoot("b")
		defer a.Finish()
		defer b.Finish()
		return a.Context().TraceID, b.Context().TraceID
	}
	a1, b1 := mk()
	a2, b2 := mk()
	if a1 != a2 || b1 != b2 {
		t.Error("derived ID streams are not deterministic")
	}
	if a1 == b1 {
		t.Error("different derive seeds produced colliding IDs")
	}
}

func TestDeriveNilSafe(t *testing.T) {
	var tr *Tracer
	d := tr.Derive(1, A("tenant", "x"))
	if d != nil {
		t.Error("nil tracer should derive nil")
	}
	d.StartRoot("op").Finish() // must not panic
}
