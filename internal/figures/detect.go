package figures

// Detection-latency benchmark for the alerting pipeline: inject PoP
// outages into a fresh world and measure how many controller ticks the
// catchment-drift detector (EWMA band over per-PoP anycast shares)
// needs to raise the alert, and how many to resolve it after recovery.
// The whole run is replayed twice from the same seed; the headline
// includes whether the two alert streams were byte-identical — the
// determinism contract the history/alert layer promises.

import (
	"bytes"
	"fmt"
	"time"

	"painter/internal/cloud"
	"painter/internal/experiments"
	"painter/internal/netsim"
	"painter/internal/obs"
	"painter/internal/obs/alert"
	"painter/internal/obs/history"
	"painter/internal/stats"
)

// DetectBenchConfig parameterizes the benchmark.
type DetectBenchConfig struct {
	// Trials is the number of PoP outages injected (default 6, capped
	// at the deployment's PoP count).
	Trials int
	// Warmup is the EWMA warm-up: ticks sampled before any fault, and
	// the detector's MinSamples (default 6).
	Warmup int
	// MaxTicks bounds the post-injection wait for the alert (default 20).
	MaxTicks int
	// Band is the EWMA drift band (default: detector's own 0.08).
	Band float64
	// ForTicks is how many consecutive out-of-band ticks fire the alert
	// (default 2 — one to go pending, one to confirm).
	ForTicks int
}

func (c *DetectBenchConfig) defaults() {
	if c.Trials <= 0 {
		c.Trials = 6
	}
	if c.Warmup <= 0 {
		c.Warmup = 6
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 20
	}
	if c.ForTicks <= 0 {
		c.ForTicks = 2
	}
}

// DetectTrial is one injected outage.
type DetectTrial struct {
	Event string
	// Share is the victim PoP's anycast share just before the outage —
	// the drift magnitude the detector has to notice.
	Share float64
	// DetectTicks is firing-tick minus inject-tick; -1 when the alert
	// never fired within MaxTicks.
	DetectTicks int
	// ResolveTicks is ticks from recovery to the alert resolving (the
	// EWMA re-converging); -1 when the outage was never detected or the
	// alert stayed firing past 4*MaxTicks.
	ResolveTicks int
}

// DetectBenchResult is the detection figure: one point per outage,
// recall, and latency over the detected outages only.
type DetectBenchResult struct {
	Scale    string
	PoPs     int
	UGs      int
	Trials   int
	Detected int

	// Medians and the maximum are over detected trials; 0 when none was.
	MedianDetectTicks  float64
	MaxDetectTicks     float64
	MedianResolveTicks float64

	// Deterministic reports whether two same-seed runs produced
	// byte-identical alert transition streams and history rings.
	Deterministic bool

	Points []DetectTrial
}

// RunDetectBench runs the outage schedule twice from the same seed and
// reports detection latency plus the determinism verdict.
func RunDetectBench(env *experiments.Env, cfg DetectBenchConfig) (*DetectBenchResult, error) {
	cfg.defaults()
	res, stream1, ring1, err := runDetectOnce(env, cfg)
	if err != nil {
		return nil, err
	}
	_, stream2, ring2, err := runDetectOnce(env, cfg)
	if err != nil {
		return nil, fmt.Errorf("figures: detect twin run: %w", err)
	}
	res.Deterministic = bytes.Equal(stream1, stream2) && bytes.Equal(ring1, ring2)
	return res, nil
}

// runDetectOnce builds a fresh world + detector rig and replays the
// outage schedule, returning the result plus the canonical alert-stream
// and history-ring encodings for the determinism comparison.
func runDetectOnce(env *experiments.Env, cfg DetectBenchConfig) (*DetectBenchResult, []byte, []byte, error) {
	w, err := netsim.New(env.Graph, env.Deploy, env.Seed+3)
	if err != nil {
		return nil, nil, nil, err
	}
	ca := netsim.NewCatchmentAnalyzer(w, env.AllUGs, 0)
	reg := obs.NewRegistry()
	cg := netsim.NewCatchmentGauges(reg, env.Deploy)
	hist := history.New(history.Config{
		Clock: history.TickClock(0, int64(time.Second)),
		Regs:  func() []*obs.Registry { return []*obs.Registry{reg} },
	})
	eng := alert.NewEngine(hist,
		alert.CatchmentDriftRules(cfg.Band, cfg.Warmup, cfg.ForTicks),
		alert.Options{})

	// step advances the rig one controller tick: refresh the catchment,
	// publish it, sample history, judge the rules.
	var catch map[cloud.PoPID]float64
	step := func() error {
		share, err := ca.Update()
		if err != nil {
			return err
		}
		catch = share
		cg.Set(share)
		eng.Eval(hist.Sample())
		return nil
	}
	drifting := func() bool {
		for _, sv := range eng.Firing() {
			if sv.Rule == "catchment_drift" {
				return true
			}
		}
		return false
	}

	res := &DetectBenchResult{
		Scale: env.Scale.String(),
		PoPs:  len(env.Deploy.PoPs), UGs: env.AllUGs.Len(),
	}
	for i := 0; i < cfg.Warmup; i++ {
		if err := step(); err != nil {
			return nil, nil, nil, err
		}
	}

	var detects, resolves []float64
	hit := make(map[cloud.PoPID]bool)
	for trial := 0; trial < cfg.Trials; trial++ {
		// Victim: the heaviest not-yet-hit PoP (ties broken by ID), so
		// trials sweep down the share distribution — from the outage
		// every detector should see toward ones near the band.
		victim, share := heaviestPoP(catch, hit)
		if share < 0 { // every PoP hit: start the sweep over
			clear(hit)
			victim, share = heaviestPoP(catch, hit)
		}
		hit[victim] = true
		ev := netsim.Event{Kind: netsim.EventPoPDown, PoP: victim}
		if err := w.ApplyEvent(ev); err != nil {
			return nil, nil, nil, err
		}
		pt := DetectTrial{Event: ev.String(), Share: share, DetectTicks: -1, ResolveTicks: -1}
		if err := step(); err != nil {
			return nil, nil, nil, err
		}
		for waited := 1; waited <= cfg.MaxTicks; waited++ {
			if drifting() {
				pt.DetectTicks = waited
				break
			}
			if err := step(); err != nil {
				return nil, nil, nil, err
			}
		}
		if pt.DetectTicks >= 0 {
			res.Detected++
			detects = append(detects, float64(pt.DetectTicks))
		}
		// Recovery: restore the PoP and wait for the EWMA to re-converge
		// and the alert (recovery shifts shares back, so it may re-arm
		// briefly) to leave the firing state. An outage nobody detected
		// has nothing to resolve, but the wait still runs so the next
		// trial starts from a settled baseline.
		if err := w.ApplyEvent(netsim.Event{Kind: netsim.EventPoPUp, PoP: victim}); err != nil {
			return nil, nil, nil, err
		}
		for waited := 1; waited <= 4*cfg.MaxTicks; waited++ {
			if err := step(); err != nil {
				return nil, nil, nil, err
			}
			if !drifting() {
				if pt.DetectTicks >= 0 {
					pt.ResolveTicks = waited
					resolves = append(resolves, float64(waited))
				}
				break
			}
		}
		// Let the baseline settle before the next trial so trials stay
		// independent.
		for i := 0; i < cfg.Warmup; i++ {
			if err := step(); err != nil {
				return nil, nil, nil, err
			}
		}
		res.Trials++
		res.Points = append(res.Points, pt)
	}
	// stats.ErrEmpty (nothing detected) leaves the zero value.
	res.MedianDetectTicks, _ = stats.Median(detects)
	res.MaxDetectTicks, _ = stats.Percentile(detects, 100)
	res.MedianResolveTicks, _ = stats.Median(resolves)
	return res, eng.Result().Bytes(), hist.Bytes(), nil
}

// heaviestPoP returns the PoP with the largest anycast share among
// those not in skip (share -1 when all are skipped).
func heaviestPoP(share map[cloud.PoPID]float64, skip map[cloud.PoPID]bool) (cloud.PoPID, float64) {
	var best cloud.PoPID
	bestShare := -1.0
	for id, s := range share {
		if skip[id] {
			continue
		}
		if s > bestShare || (s == bestShare && id < best) {
			best, bestShare = id, s
		}
	}
	return best, bestShare
}

// Table renders the result for painter-bench.
func (r *DetectBenchResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("catchment-drift detection latency (%s scale, %d PoPs, %d UGs, %d/%d detected, deterministic=%v)",
			r.Scale, r.PoPs, r.UGs, r.Detected, r.Trials, r.Deterministic),
		Header: []string{"event", "share", "detectTicks", "resolveTicks"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Event,
			pct(p.Share),
			fmt.Sprintf("%d", p.DetectTicks),
			fmt.Sprintf("%d", p.ResolveTicks),
		})
	}
	t.Rows = append(t.Rows,
		[]string{"recall (detected/trials)", "", fmt.Sprintf("%d/%d", r.Detected, r.Trials), ""},
		[]string{"median / max over detected", "",
			fmt.Sprintf("%.1f / %.0f", r.MedianDetectTicks, r.MaxDetectTicks),
			fmt.Sprintf("%.1f", r.MedianResolveTicks)})
	return t
}
