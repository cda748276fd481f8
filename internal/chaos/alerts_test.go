package chaos

// End-to-end detection test for the history/alert pipeline: a scripted
// peering-down + PoP-down schedule shifts the anycast catchment, the
// per-tick rig (CatchmentAnalyzer → CatchmentGauges → history.Sample →
// alert.Eval) must raise the catchment-drift alert within a bounded
// number of ticks, and two same-seed runs must produce byte-identical
// alert streams and history rings — the determinism contract.

import (
	"bytes"
	"testing"
	"time"

	"painter/internal/netsim"
	"painter/internal/obs"
	"painter/internal/obs/alert"
	"painter/internal/obs/history"
	"painter/internal/usergroup"
)

// alertRun replays the schedule on a fresh world with the full detector
// rig attached and returns the canonical encodings of the run
// (recordedRun), the alert stream and the history ring, and the tick at
// which catchment_drift first fired (-1 = never).
func alertRun(t *testing.T, sched Schedule) (run, stream, ring []byte, firedTick int) {
	t.Helper()
	g, d, fresh := testRig(t)
	ugs, err := usergroup.Build(g, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := fresh()
	ca := netsim.NewCatchmentAnalyzer(w, ugs, 0)
	reg := obs.NewRegistry()
	cg := netsim.NewCatchmentGauges(reg, d)
	hist := history.New(history.Config{
		Clock: history.TickClock(0, int64(time.Second)),
		Regs:  func() []*obs.Registry { return []*obs.Registry{reg} },
	})
	eng := alert.NewEngine(hist, alert.CatchmentDriftRules(0, 4, 1), alert.Options{})

	firedTick = -1
	run, _, _ = recordedRun(t, w, d, sched, func(tick int, w *netsim.World) error {
		share, err := ca.Update()
		if err != nil {
			return err
		}
		cg.Set(share)
		eng.Eval(hist.Sample())
		if firedTick < 0 {
			for _, sv := range eng.Firing() {
				if sv.Rule == "catchment_drift" {
					firedTick = tick
				}
			}
		}
		return nil
	})
	return run, eng.Result().Bytes(), hist.Bytes(), firedTick
}

func TestCatchmentDriftAlertEndToEnd(t *testing.T) {
	// Warm the EWMA over quiet ticks, then take down a whole PoP (the
	// largest share shift a schedule can produce) plus one extra peering
	// elsewhere, and leave ticks after for detection.
	const faultTick = 8
	_, d, _ := testRig(t)
	pop := d.PoPs[0].ID
	sched := Schedule{
		{Tick: faultTick, Ev: netsim.Event{Kind: netsim.EventPoPDown, PoP: pop}},
		{Tick: faultTick + 8, Ev: netsim.Event{Kind: netsim.EventPoPUp, PoP: pop}},
	}
	for _, p := range d.PoPs[1:] {
		ids := d.PeeringsAt(p.ID)
		if len(ids) > 0 {
			sched = append(sched,
				ScheduledEvent{Tick: faultTick, Ev: netsim.Event{Kind: netsim.EventPeeringDown, Ingress: ids[0]}},
				ScheduledEvent{Tick: faultTick + 8, Ev: netsim.Event{Kind: netsim.EventPeeringUp, Ingress: ids[0]}})
			break
		}
	}

	res1, stream1, ring1, fired1 := alertRun(t, sched)
	if fired1 < faultTick {
		t.Fatalf("catchment_drift fired at tick %d, before the fault at %d (or never)", fired1, faultTick)
	}
	const detectBound = 4
	if fired1 > faultTick+detectBound {
		t.Fatalf("catchment_drift fired at tick %d, more than %d ticks after the fault at %d",
			fired1, detectBound, faultTick)
	}

	// Same seed, fresh rig: the alert stream and history ring must be
	// byte-identical, and so must the chaos timeline.
	res2, stream2, ring2, fired2 := alertRun(t, sched)
	if fired1 != fired2 {
		t.Fatalf("detection tick diverged: %d vs %d", fired1, fired2)
	}
	if !bytes.Equal(stream1, stream2) {
		t.Fatal("alert streams diverged across same-seed runs")
	}
	if !bytes.Equal(ring1, ring2) {
		t.Fatal("history rings diverged across same-seed runs")
	}
	if !bytes.Equal(res1, res2) {
		t.Fatal("chaos results diverged across same-seed runs")
	}
	if len(stream1) == 0 {
		t.Fatal("alert stream is empty despite a firing alert")
	}
}
