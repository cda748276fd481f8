package experiments_test

import (
	"testing"
	"time"

	"painter/internal/cloud"
	"painter/internal/experiments"
	"painter/internal/figures"
	"painter/internal/netsim"
	"painter/internal/obs"
	"painter/internal/obs/alert"
	"painter/internal/obs/history"
)

// TestDetectBenchSmall pins the figure's accounting: only a detected
// outage can resolve, and the latency summaries cover detected trials
// only. At the tenants' band (0.08) the share sweep crosses it (the heaviest
// PoPs are seen, the lighter ones are not); a band of 1 detects nothing.
func TestDetectBenchSmall(t *testing.T) {
	t.Run("default band", func(t *testing.T) {
		res, err := figures.RunDetectBench(env(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deterministic {
			t.Error("twin runs from one seed diverged")
		}
		if res.Trials != 6 || len(res.Points) != res.Trials {
			t.Fatalf("trials %d, points %d, want 6", res.Trials, len(res.Points))
		}
		detected := 0
		for _, p := range res.Points {
			if p.DetectTicks >= 0 {
				detected++
			} else if p.ResolveTicks != -1 {
				t.Errorf("%s: never detected, yet resolved in %d ticks", p.Event, p.ResolveTicks)
			}
		}
		if detected != res.Detected {
			t.Errorf("Detected = %d, points say %d", res.Detected, detected)
		}
		if detected == 0 || detected == res.Trials {
			t.Errorf("detected %d of %d: the sweep should cross the band", detected, res.Trials)
		}
		if rows := res.Table().Rows; len(rows) != res.Trials+2 {
			t.Errorf("table has %d rows, want one per trial plus recall and summary", len(rows))
		}
	})

	// The band is no longer a figure option, so the negative control
	// drives the benchmark's rig (same warm-up, same two-tick hold) with
	// the band handed straight to alert.CatchmentDriftRules. The default
	// band on the same drive must fire, or the control proves nothing.
	t.Run("band 1", func(t *testing.T) {
		e := env(t)
		if n := driftDetections(t, e, 0.08, 3); n == 0 {
			t.Fatal("default band detected none of the three heaviest outages")
		}
		if n := driftDetections(t, e, 1, 3); n != 0 {
			t.Errorf("band 1 detected %d of 3 outages, want none", n)
		}
	})
}

// driftDetections warms a fresh world's catchment-drift detector, takes
// the heaviest PoPs down one at a time (restoring each and letting the
// baseline settle before the next), and returns how many of those
// outages raised catchment_drift.
func driftDetections(t *testing.T, e *experiments.Env, band float64, trials int) int {
	t.Helper()
	const warmup, forTicks, maxTicks = 6, 2, 20
	w, err := netsim.New(e.Graph, e.Deploy, e.Seed+3)
	if err != nil {
		t.Fatal(err)
	}
	ca := netsim.NewCatchmentAnalyzer(w, e.AllUGs, 0)
	reg := obs.NewRegistry()
	cg := netsim.NewCatchmentGauges(reg, e.Deploy)
	hist := history.New(history.Config{
		Clock: history.TickClock(0, int64(time.Second)),
		Regs:  func() []*obs.Registry { return []*obs.Registry{reg} },
	})
	eng := alert.NewEngine(hist, alert.CatchmentDriftRules(band, warmup, forTicks), alert.Options{})

	var catch map[cloud.PoPID]float64
	step := func() {
		t.Helper()
		share, err := ca.Update()
		if err != nil {
			t.Fatal(err)
		}
		catch = share
		cg.Set(share)
		eng.Eval(hist.Sample())
	}
	drifting := func() bool {
		for _, sv := range eng.Firing() {
			if sv.Rule == "catchment_drift" {
				return true
			}
		}
		return false
	}
	apply := func(ev netsim.Event) {
		t.Helper()
		if err := w.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < warmup; i++ {
		step()
	}
	detected := 0
	hit := make(map[cloud.PoPID]bool)
	for trial := 0; trial < trials && trial < len(e.Deploy.PoPs); trial++ {
		var victim cloud.PoPID
		best := -1.0
		for id, s := range catch {
			if !hit[id] && (s > best || (s == best && id < victim)) {
				victim, best = id, s
			}
		}
		hit[victim] = true
		apply(netsim.Event{Kind: netsim.EventPoPDown, PoP: victim})
		fired := false
		for i := 0; i <= maxTicks && !fired; i++ {
			step()
			fired = drifting()
		}
		if fired {
			detected++
		}
		apply(netsim.Event{Kind: netsim.EventPoPUp, PoP: victim})
		for i := 0; i < 4*maxTicks && drifting(); i++ {
			step()
		}
		for i := 0; i < warmup; i++ {
			step()
		}
	}
	return detected
}
