package experiments_test

import (
	"testing"

	"painter/internal/figures"
)

// TestDetectBenchSmall pins the figure's accounting: only a detected
// outage can resolve, and the latency summaries cover detected trials
// only. At the default band the share sweep crosses it (the heaviest
// PoPs are seen, the fourth is not); a band of 1 detects nothing.
func TestDetectBenchSmall(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  figures.DetectBenchConfig
		some bool // some but not all outages detected
	}{
		{"default band", figures.DetectBenchConfig{Trials: 4}, true},
		{"band 1", figures.DetectBenchConfig{Trials: 3, Band: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := figures.RunDetectBench(env(t), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Deterministic {
				t.Error("twin runs from one seed diverged")
			}
			if res.Trials != tc.cfg.Trials || len(res.Points) != res.Trials {
				t.Fatalf("trials %d, points %d, want %d", res.Trials, len(res.Points), tc.cfg.Trials)
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
			if tc.some && (detected == 0 || detected == res.Trials) {
				t.Errorf("detected %d of %d: the sweep should cross the band", detected, res.Trials)
			}
			if !tc.some && (detected != 0 || res.MedianDetectTicks != 0 || res.MaxDetectTicks != 0 || res.MedianResolveTicks != 0) {
				t.Errorf("detected %d, medians %v / %v / %v: want nothing detected and zero summaries",
					detected, res.MedianDetectTicks, res.MaxDetectTicks, res.MedianResolveTicks)
			}
			if rows := res.Table().Rows; len(rows) != res.Trials+2 {
				t.Errorf("table has %d rows, want one per trial plus recall and summary", len(rows))
			}
		})
	}
}
