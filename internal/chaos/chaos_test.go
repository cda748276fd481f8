package chaos

// Engine-level property tests: byte-identical timelines for equal seeds,
// valley-freedom after every event, cached worlds agreeing with fresh
// replays at checkpoints, and deterministic parallel Execute under
// churn.

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/netsim"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// testRig builds a deterministic (graph, deployment, fresh-world
// factory) triple for chaos runs.
func testRig(t *testing.T) (*topology.Graph, *cloud.Deployment, func() *netsim.World) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Seed: 11, Tier1: 3, Tier2: 12, Stubs: 80,
		MeanStubProviders: 2.3, Tier2PeerProb: 0.3,
		EnterpriseFrac: 0.35, ContentFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cloud.Build(g, 64500, cloud.Profile{
		Name: "chaos", PoPMetros: 8, PeerFrac: 0.75, TransitProviders: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *netsim.World {
		w, err := netsim.New(g, d, 41)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return g, d, fresh
}

func TestGenerateDeterministicAndConsistent(t *testing.T) {
	g, d, _ := testRig(t)
	cfg := DefaultGenConfig(12345)
	s1, err := Generate(g, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Generate(g, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	// Different seeds must diverge.
	s3, err := Generate(g, d, DefaultGenConfig(54321))
	if err != nil {
		t.Fatal(err)
	}
	same := len(s3) == len(s1)
	if same {
		for i := range s1 {
			if s1[i] != s3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// TestChaosRunDeterministic is the acceptance-critical property: a
// seeded schedule with at least five event kinds, run twice on fresh
// worlds, produces byte-identical timelines and final route tables.
func TestChaosRunDeterministic(t *testing.T) {
	g, d, fresh := testRig(t)
	sched, err := Generate(g, d, DefaultGenConfig(777))
	if err != nil {
		t.Fatal(err)
	}
	kinds := sched.Kinds()
	if len(kinds) < 5 {
		t.Fatalf("schedule has only %d distinct event kinds (%v), want >= 5", len(kinds), kinds)
	}

	r1, events, live := recordedRun(t, fresh(), d, sched, nil)
	r2, _, _ := recordedRun(t, fresh(), d, sched, nil)
	if events == 0 {
		t.Fatal("empty timeline")
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("two runs of the same seeded schedule produced different results")
	}
	// The final recovery means every peering ends live and the final routes
	// match a clean world's.
	if live != len(d.AllPeeringIDs()) {
		t.Errorf("only %d/%d peerings live at end of schedule",
			live, len(d.AllPeeringIDs()))
	}
}

// TestValleyFreeUnderChaos asserts the valley-free invariant holds after
// every tick of a chaotic schedule: selection over the surviving peering
// set always corresponds to Gao–Rexford-exportable paths.
func TestValleyFreeUnderChaos(t *testing.T) {
	g, d, fresh := testRig(t)
	sched, err := Generate(g, d, DefaultGenConfig(4242))
	if err != nil {
		t.Fatal(err)
	}
	all := d.AllPeeringIDs()
	checked := 0
	_, err = Run(fresh(), d, sched, func(tick int, w *netsim.World) error {
		live := w.LiveIngresses(all)
		if len(live) == 0 {
			return nil
		}
		sel, err := w.ResolveIngress(all)
		if err != nil {
			return err
		}
		inj, err := d.Injections(live)
		if err != nil {
			return err
		}
		checked++
		return checkValleyFree(g, inj, sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no ticks checked")
	}
}

// TestCachedWorldMatchesFreshUnderChaos replays schedule prefixes onto
// fresh worlds at checkpoints and compares every query surface with the
// long-lived cached world.
func TestCachedWorldMatchesFreshUnderChaos(t *testing.T) {
	g, d, fresh := testRig(t)
	sched, err := Generate(g, d, DefaultGenConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	all := d.AllPeeringIDs()

	// Sample a few stub ASes for the pointwise queries.
	var asns []topology.ASN
	for _, n := range g.ASNs() {
		if a := g.AS(n); a.Tier == topology.TierStub && len(a.Metros) > 0 {
			asns = append(asns, n)
			if len(asns) == 6 {
				break
			}
		}
	}

	w := fresh()
	ordered := make(Schedule, len(sched))
	copy(ordered, sched)
	ordered.sortStable()

	checkpoints := map[int]bool{
		len(ordered) / 4:     true,
		len(ordered) / 2:     true,
		3 * len(ordered) / 4: true,
		len(ordered):         true,
	}
	for i := 0; i <= len(ordered); i++ {
		if i > 0 {
			if err := w.ApplyEvent(ordered[i-1].Ev); err != nil {
				t.Fatal(err)
			}
			// Exercise the caches between events so staleness can show.
			if _, err := w.ResolveIngress(all); err != nil {
				t.Fatal(err)
			}
		}
		if !checkpoints[i] {
			continue
		}
		fw := fresh()
		for j := 0; j < i; j++ {
			if err := fw.ApplyEvent(ordered[j].Ev); err != nil {
				t.Fatal(err)
			}
		}
		a, err := w.ResolveIngress(all)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fw.ResolveIngress(all)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("checkpoint %d: cached selection differs from fresh (ASes %v)", i, a.Diff(b))
		}
		for _, asn := range asns {
			metro := g.AS(asn).Metros[0]
			am, ai, aerr := w.BestIngressLatency(asn, metro)
			bm, bi, berr := fw.BestIngressLatency(asn, metro)
			if (aerr == nil) != (berr == nil) || am != bm || ai != bi {
				t.Fatalf("checkpoint %d AS %v: BestIngressLatency (%v,%v,%v) != (%v,%v,%v)",
					i, asn, am, ai, aerr, bm, bi, berr)
			}
			al, err1 := w.LatencyMs(asn, metro, all[0])
			bl, err2 := fw.LatencyMs(asn, metro, all[0])
			if (err1 == nil) != (err2 == nil) || al != bl {
				t.Fatalf("checkpoint %d AS %v: LatencyMs diverges", i, asn)
			}
			ap, err1 := w.CompliantIngressIDs(asn)
			bp, err2 := fw.CompliantIngressIDs(asn)
			if (err1 == nil) != (err2 == nil) || !slices.Equal(ap, bp) {
				t.Fatalf("checkpoint %d AS %v: CompliantIngressIDs diverges", i, asn)
			}
		}
	}
}

// TestParallelExecuteDeterministicUnderChaos runs the parallel
// per-prefix executor between chaos ticks, twice with equal seeds, and
// requires identical observation streams.
func TestParallelExecuteDeterministicUnderChaos(t *testing.T) {
	g, d, fresh := testRig(t)
	ugs, err := usergroup.Build(g, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Generate(g, d, DefaultGenConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	all := d.AllPeeringIDs()
	// Two prefixes partitioning the peerings, plus one anycast-style
	// full-set prefix.
	half := len(all) / 2
	cfg := core.Config{Prefixes: [][]bgp.IngressID{all[:half], all[half:], all}}

	run := func() [][]core.Observation {
		w := fresh()
		ex := core.NewWorldExecutor(w, ugs, 2.0, 17)
		var out [][]core.Observation
		_, err := Run(w, d, sched, func(tick int, w *netsim.World) error {
			if tick%5 != 0 {
				return nil
			}
			obs, err := ex.Execute(cfg)
			if err != nil {
				return err
			}
			out = append(out, obs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("observation wave counts differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("wave %d: %d vs %d observations", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("wave %d obs %d: %+v vs %+v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// recordedRun is Run with the run's canonical encoding for the
// determinism tests: the timeline of events the world published, each
// stamped with its tick (recorded through the test's own
// World.Subscribe), then the final routes' Bytes, then the peerings live
// at the end. Two runs are equivalent iff their encodings are identical.
// It also returns how many events the world published and how many
// peerings are live at the end.
func recordedRun(t *testing.T, w *netsim.World, d *cloud.Deployment, sched Schedule, onTick TickFunc) (enc []byte, events, live int) {
	t.Helper()
	u32 := func(v uint32) { enc = binary.LittleEndian.AppendUint32(enc, v) }
	var timeline []byte
	cur := 0
	cancel := w.Subscribe(func(ev netsim.Event) {
		events++
		timeline = binary.LittleEndian.AppendUint32(timeline, uint32(cur))
		timeline = append(timeline, byte(ev.Kind))
		timeline = binary.LittleEndian.AppendUint32(timeline, uint32(ev.Ingress))
		timeline = binary.LittleEndian.AppendUint32(timeline, uint32(ev.PoP))
		timeline = binary.LittleEndian.AppendUint32(timeline, uint32(ev.AS))
		timeline = binary.LittleEndian.AppendUint64(timeline, math.Float64bits(ev.Ms))
		timeline = binary.LittleEndian.AppendUint32(timeline, uint32(int32(ev.Pct)))
		timeline = binary.LittleEndian.AppendUint64(timeline, ev.Seq)
	})
	defer cancel()
	final, err := Run(w, d, sched, func(tick int, w *netsim.World) error {
		defer func() { cur = tick + 1 }() // events of tick t are applied before onTick(t)
		if onTick != nil {
			return onTick(tick, w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	u32(uint32(events))
	enc = append(enc, timeline...)
	enc = append(enc, final.Bytes()...)
	liveIDs := w.LiveIngresses(d.AllPeeringIDs())
	u32(uint32(len(liveIDs)))
	for _, id := range liveIDs {
		u32(uint32(id))
	}
	return enc, events, len(liveIDs)
}
