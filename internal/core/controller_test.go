package core

// Controller tests: the event→dirty-set mapping for all 7 netsim event
// kinds, differential against a cold full solve on the post-event world.
// After each scenario a full compute on the controller's own
// incrementally refreshed model (anycast baselines, dark mask, live
// filter) must match the cold solve byte-for-byte — proving that model
// is exactly the one a restarted batch operator would build. The
// repaired config is held to a benefit tolerance instead: mid-outage,
// frozen clean prefixes cost a few percent versus a global re-solve
// (that is the price of incrementality; the dirty-fraction threshold
// bounds it, and the chaos convergence test asserts the 1% criterion
// once schedules recover).

import (
	"bytes"
	"encoding/binary"
	"testing"

	"painter/internal/bgp"
	"painter/internal/netsim"
	"painter/internal/obs"
	"painter/internal/usergroup"
)

const ctrlBudget = 5

// repairTolerance is the minimum fraction of the cold-solve benefit the
// warm-start path must retain mid-outage.
const repairTolerance = 0.90

func newTestController(t *testing.T, b *testBench) *Controller {
	return newTestControllerObs(t, b, nil)
}

// newTestControllerObs builds the controller with its metrics on reg.
func newTestControllerObs(t *testing.T, b *testBench, reg *obs.Registry) *Controller {
	t.Helper()
	p := DefaultParams(ctrlBudget)
	p.Obs = reg
	c, err := NewController(b.world, b.ugs, ControllerParams{Solver: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// coldConfig computes a from-scratch config on the world's CURRENT
// state: fresh inputs (current anycast baselines and coverage), live
// peerings only — what a batch operator restarted after the events
// would produce.
func coldConfig(t *testing.T, b *testBench) Config {
	t.Helper()
	in, _, err := SimInputs(b.world, b.ugs, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(in, nil, DefaultParams(ctrlBudget))
	if err != nil {
		t.Fatal(err)
	}
	return o.computeConfig(nil, func(id bgp.IngressID) bool { return !b.world.IngressDown(id) }, nil)
}

func benefitOf(t *testing.T, b *testBench, cfg Config) float64 {
	t.Helper()
	res, err := Evaluate(b.world, b.ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Benefit
}

// configBytes canonically serializes a config for byte-equality checks.
func configBytes(cfg Config) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cfg.Prefixes)))
	for _, S := range cfg.Prefixes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(S)))
		for _, ing := range S {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ing))
		}
	}
	return buf
}

func prefixesContaining(cfg Config, ids ...bgp.IngressID) map[int]bool {
	want := make(map[bgp.IngressID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := make(map[int]bool)
	for pi, S := range cfg.Prefixes {
		for _, ing := range S {
			if want[ing] {
				out[pi] = true
				break
			}
		}
	}
	return out
}

func assertDirtyContains(t *testing.T, rep SyncReport, want map[int]bool) {
	t.Helper()
	got := make(map[int]bool, len(rep.Dirty))
	for _, pi := range rep.Dirty {
		got[pi] = true
	}
	for pi := range want {
		if !got[pi] {
			t.Errorf("prefix %d should be dirty; dirty set = %v", pi, rep.Dirty)
		}
	}
}

func assertNoneContain(t *testing.T, cfg Config, ids ...bgp.IngressID) {
	t.Helper()
	bad := prefixesContaining(cfg, ids...)
	if len(bad) != 0 {
		t.Errorf("repaired config still advertises failed ingresses %v in prefixes %v", ids, bad)
	}
}

// ctrlRig is a world and the controller under test, whose metrics go to
// reg. want tallies the sync reports by the counter each one moves.
type ctrlRig struct {
	t    *testing.T
	b    *testBench
	c    *Controller
	reg  *obs.Registry
	want map[string]uint64
}

func newCtrlRig(t *testing.T, seed int64) *ctrlRig {
	t.Helper()
	r := &ctrlRig{t: t, b: newBench(t, seed), reg: obs.NewRegistry(), want: map[string]uint64{
		"core_controller_events_total": 0,
		"core_repairs_total":           0,
		"core_full_resolves_total":     0,
		"core_repair_noops_total":      0,
	}}
	r.c = newTestControllerObs(t, r.b, r.reg)
	return r
}

func (r *ctrlRig) apply(ev netsim.Event) {
	r.t.Helper()
	if err := r.b.world.ApplyEvent(ev); err != nil {
		r.t.Fatal(err)
	}
}

func (r *ctrlRig) sync() (Config, SyncReport) {
	r.t.Helper()
	cfg, rep, err := r.c.Sync()
	if err != nil {
		r.t.Fatal(err)
	}
	r.want["core_controller_events_total"] += uint64(rep.Events)
	switch {
	case rep.Repaired:
		r.want["core_repairs_total"]++
	case rep.FullSolve:
		r.want["core_full_resolves_total"]++
	case rep.Events > 0:
		r.want["core_repair_noops_total"]++
	}
	return cfg, rep
}

// checkMetrics asserts the controller's counters equal the tally of
// its sync reports, and that every placed prefix was a timed grow.
func (r *ctrlRig) checkMetrics() {
	r.t.Helper()
	snap := r.reg.Snapshot()
	for name, n := range r.want {
		if got := snap.Counters[name]; got != n {
			r.t.Errorf("%s = %d, the sync reports say %d", name, got, n)
		}
	}
	placed := snap.Counters["core_prefixes_placed_total"]
	if grows := snap.Histograms["core_prefix_grow_seconds"].Count; placed == 0 || grows < placed {
		r.t.Errorf("core_prefix_grow_seconds count %d, core_prefixes_placed_total %d: want placed > 0 and a timed grow per placement", grows, placed)
	}
}

// TestControllerDirtySetPerKind drives each of the 7 event kinds through
// a fresh rig and asserts (a) the per-kind dirty-set rules, (b) the
// exact differential — a full compute on the controller's refreshed
// model byte-identical to a cold solve on the post-event world — and
// (c) the synced config's benefit within tolerance of cold.
func TestControllerDirtySetPerKind(t *testing.T) {
	type scenario struct {
		name string
		run  func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport)
	}

	// anycastUnselected returns an advertised ingress no UG's anycast
	// route currently selects (zero when all are selected).
	anycastUnselected := func(t *testing.T, b *testBench, before Config) bgp.IngressID {
		t.Helper()
		_, ing, err := AnycastLatencies(b.world, b.ugs)
		if err != nil {
			t.Fatal(err)
		}
		selected := make(map[bgp.IngressID]bool, len(ing))
		for _, id := range ing {
			selected[id] = true
		}
		for _, S := range before.Prefixes {
			for _, id := range S {
				if !selected[id] {
					return id
				}
			}
		}
		return 0
	}

	scenarios := []scenario{
		{"peering-down", func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport) {
			x := before.Prefixes[0][0]
			r.apply(netsim.Event{Kind: netsim.EventPeeringDown, Ingress: x})
			after, rep := r.sync()
			assertDirtyContains(t, rep, prefixesContaining(before, x))
			assertNoneContain(t, after, x)
			return after, rep
		}},
		{"peering-up", func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport) {
			x := before.Prefixes[0][0]
			r.apply(netsim.Event{Kind: netsim.EventPeeringDown, Ingress: x})
			r.sync()
			r.apply(netsim.Event{Kind: netsim.EventPeeringUp, Ingress: x})
			after, rep := r.sync()
			if rep.Events != 1 {
				t.Errorf("recovery sync consumed %d events, want 1", rep.Events)
			}
			return after, rep
		}},
		{"pop-down", func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport) {
			pop, err := r.b.world.Deploy.PoPOfPeering(before.Prefixes[0][0])
			if err != nil {
				t.Fatal(err)
			}
			at := r.b.world.Deploy.PeeringsAt(pop.ID)
			r.apply(netsim.Event{Kind: netsim.EventPoPDown, PoP: pop.ID})
			after, rep := r.sync()
			assertDirtyContains(t, rep, prefixesContaining(before, at...))
			assertNoneContain(t, after, at...)
			return after, rep
		}},
		{"pop-up", func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport) {
			pop, err := r.b.world.Deploy.PoPOfPeering(before.Prefixes[0][0])
			if err != nil {
				t.Fatal(err)
			}
			r.apply(netsim.Event{Kind: netsim.EventPoPDown, PoP: pop.ID})
			r.sync()
			r.apply(netsim.Event{Kind: netsim.EventPoPUp, PoP: pop.ID})
			after, rep := r.sync()
			return after, rep
		}},
		{"latency-spike-selected", func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport) {
			// Spike an ingress some UG's anycast route traverses: those
			// states' baselines move, dirtying every prefix they can use.
			_, ing, err := AnycastLatencies(r.b.world, r.b.ugs)
			if err != nil {
				t.Fatal(err)
			}
			var x bgp.IngressID
			var victim usergroup.ID
			for id, sel := range ing {
				if x == 0 || sel < x {
					x, victim = sel, id
				}
			}
			r.apply(netsim.Event{Kind: netsim.EventLatencySpike, Ingress: x, Ms: 80})
			after, rep := r.sync()
			if rep.AnycastChanged == 0 {
				t.Errorf("spiking anycast-selected ingress %d changed no baselines", x)
			}
			// The victim's usable prefixes must all be dirty.
			want := make(map[int]bool)
			sc := new(exScratch)
			for _, st := range r.c.o.states {
				if st.ug.ID != victim {
					continue
				}
				for pi, S := range before.Prefixes {
					if e := st.expectSc(sc, S, r.c.o.params.ReuseKm); e.Usable() {
						want[pi] = true
					}
				}
			}
			assertDirtyContains(t, rep, want)
			return after, rep
		}},
		{"latency-spike-unselected", func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport) {
			// A spike on an ingress nobody's anycast route uses moves no
			// placement input: nothing dirty, config byte-identical.
			x := anycastUnselected(t, r.b, before)
			if x == 0 {
				t.Skip("every advertised ingress is anycast-selected")
			}
			r.apply(netsim.Event{Kind: netsim.EventLatencySpike, Ingress: x, Ms: 80})
			after, rep := r.sync()
			if len(rep.Dirty) != 0 {
				t.Errorf("unselected spike dirtied prefixes %v", rep.Dirty)
			}
			if !bytes.Equal(configBytes(after), configBytes(before)) {
				t.Error("unselected spike changed the config")
			}
			return after, rep
		}},
		{"probe-loss", func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport) {
			x := before.Prefixes[0][0]
			r.apply(netsim.Event{Kind: netsim.EventProbeLoss, Ingress: x, Pct: 35})
			after, rep := r.sync()
			if len(rep.Dirty) != 0 || rep.Repaired || rep.FullSolve {
				t.Errorf("probe loss must be a no-op, got report %+v", rep)
			}
			if !bytes.Equal(configBytes(after), configBytes(before)) {
				t.Error("probe loss changed the config")
			}
			return after, rep
		}},
		{"pref-flip", func(t *testing.T, r *ctrlRig, before Config) (Config, SyncReport) {
			x := before.Prefixes[0][0]
			as := r.b.ugs.UGs[0].ASN
			r.apply(netsim.Event{Kind: netsim.EventPrefFlip, AS: as, Ingress: x})
			after, rep := r.sync()
			assertDirtyContains(t, rep, prefixesContaining(before, x))
			return after, rep
		}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			r := newCtrlRig(t, 61)
			before := r.c.Config()
			if before.NumPrefixes() == 0 {
				t.Fatal("controller produced empty initial config")
			}
			after, _ := sc.run(t, r, before)
			if err := after.Validate(r.b.world.Deploy); err != nil {
				t.Fatalf("synced config invalid: %v", err)
			}
			r.checkMetrics()
			// Exact differential: a full compute on the controller's
			// refreshed model must land on the cold solve byte-for-byte
			// (the refreshed model IS the cold model).
			cold := coldConfig(t, r.b)
			if full := r.c.o.computeConfig(nil, r.c.live, r.c.dark); !bytes.Equal(configBytes(full), configBytes(cold)) {
				t.Errorf("full compute on the refreshed model diverged from cold solve:\n full %v\n cold %v",
					full.Prefixes, cold.Prefixes)
			}
			// Tolerance differential for the warm-start path.
			got, want := benefitOf(t, r.b, after), benefitOf(t, r.b, cold)
			if got < repairTolerance*want-1e-9 {
				t.Errorf("synced benefit %.3f below %.0f%% of cold solve %.3f",
					got, repairTolerance*100, want)
			}
		})
	}
}

// TestControllerRepairRoundTrip: a down/up pair returns the world to its
// initial state; the controller's incremental path must land back within
// 1% of the initial configuration's benefit.
func TestControllerRepairRoundTrip(t *testing.T) {
	bench := newBench(t, 67)
	c := newTestController(t, bench)
	before := c.Config()
	beforeBenefit := benefitOf(t, bench, before)

	x := before.Prefixes[0][0]
	for _, ev := range []netsim.Event{
		{Kind: netsim.EventPeeringDown, Ingress: x},
		{Kind: netsim.EventPeeringUp, Ingress: x},
	} {
		if err := bench.world.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	got := benefitOf(t, bench, c.Config())
	if got < 0.99*beforeBenefit-1e-9 {
		t.Errorf("post-recovery benefit %.3f below 99%% of initial %.3f", got, beforeBenefit)
	}
}

// TestControllerSyncIdempotentWhenQuiet: with no events queued, Sync
// must return the same config and touch nothing.
func TestControllerSyncIdempotentWhenQuiet(t *testing.T) {
	bench := newBench(t, 73)
	c := newTestController(t, bench)
	before := configBytes(c.Config())
	for i := 0; i < 3; i++ {
		cfg, rep, err := c.Sync()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Events != 0 || rep.Repaired || rep.FullSolve {
			t.Fatalf("quiet sync did work: %+v", rep)
		}
		if !bytes.Equal(configBytes(cfg), before) {
			t.Fatal("quiet sync changed the config")
		}
	}
}
