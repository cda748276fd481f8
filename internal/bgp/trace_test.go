package bgp_test

import (
	"math/rand"
	"strconv"
	"testing"

	"painter/internal/bgp"
	"painter/internal/obs"
	"painter/internal/obs/span"
)

// TestPropagateResultInstrumented pins what a run from the empty Result
// reports: one bgp_propagate_total and one bgp_propagate_seconds
// observation per PropagateResult call (a repair counts in neither), and
// one bgp.propagate span carrying the injection and settled-AS counts.
func TestPropagateResultInstrumented(t *testing.T) {
	g, asns := deltaTopology(t, 2)
	inj := randomInjections(rand.New(rand.NewSource(3)), asns, 6)
	reg := obs.NewRegistry()
	bgp.InstrumentPropagate(reg)
	defer bgp.InstrumentPropagate(nil)

	tr := span.New(span.Config{Seed: 1})
	root := tr.StartRoot("test")
	res, err := bgp.PropagateResultTraced(g, inj, nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bgp.PropagateDelta(res, g, inj[:3], nil, nil); err != nil {
		t.Fatal(err)
	}
	root.Finish()

	if n := reg.Counter("bgp_propagate_total", "").Value(); n != 1 {
		t.Errorf("bgp_propagate_total = %d, want 1", n)
	}
	if n := reg.Histogram("bgp_propagate_seconds", "").Snapshot().Count; n != 1 {
		t.Errorf("bgp_propagate_seconds count = %d, want 1", n)
	}
	want := map[string]string{"injections": strconv.Itoa(len(inj)), "settled": strconv.Itoa(res.Len())}
	spans := 0
	for _, r := range tr.Recorder().Snapshot() {
		if r.Name != "bgp.propagate" {
			continue
		}
		spans++
		got := map[string]string{}
		for _, a := range r.Attrs {
			got[a.Key] = a.Value
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("bgp.propagate span attr %s = %q, want %q", k, got[k], v)
			}
		}
	}
	if spans != 1 {
		t.Errorf("%d bgp.propagate spans, want 1", spans)
	}
}
