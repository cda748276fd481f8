package chaos

// Convergence property for the continuous re-solve controller: drive a
// generated fault schedule through a world with a core.Controller
// syncing every tick, and assert (a) the incrementally maintained
// config's realized benefit lands within 1% of a cold full solve on the
// post-schedule world, and (b) the whole run — timeline, final routes,
// and final config — is byte-deterministic across same-seed runs.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"painter/internal/core"
	"painter/internal/netsim"
	"painter/internal/usergroup"
)

// ctrlConfigBytes canonically serializes an advertisement config.
func ctrlConfigBytes(cfg core.Config) []byte {
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

// runControllerUnderChaos runs one full schedule with a controller
// syncing per tick and returns the canonical bytes of (timeline + final
// config) plus the realized benefits of the controller's config and a
// cold full solve, both on the post-schedule world.
func runControllerUnderChaos(t *testing.T, seed int64) (runBytes []byte, ctrlBenefit, coldBenefit float64) {
	t.Helper()
	g, d, fresh := testRig(t)
	w := fresh()
	ugs, err := usergroup.Build(g, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(w, ugs, core.ControllerParams{Solver: core.DefaultParams(5)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()

	sched, err := Generate(g, d, DefaultGenConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	run, _, _ := recordedRun(t, w, d, sched, func(tick int, w *netsim.World) error {
		_, _, err := ctrl.Sync()
		return err
	})

	cfg := ctrl.Config()
	if err := cfg.Validate(d); err != nil {
		t.Fatalf("post-schedule config invalid: %v", err)
	}
	ctrlEval, err := core.Evaluate(w, ugs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh controller's initial config is the cold solve over the
	// world's current inputs and live peerings.
	coldCtrl, err := core.NewController(w, ugs, core.ControllerParams{Solver: core.DefaultParams(5)})
	if err != nil {
		t.Fatal(err)
	}
	coldCtrl.Stop()
	cold := coldCtrl.Config()
	coldEval, err := core.Evaluate(w, ugs, cold)
	if err != nil {
		t.Fatal(err)
	}

	runBytes = append(run, ctrlConfigBytes(cfg)...)
	return runBytes, ctrlEval.Benefit, coldEval.Benefit
}

func TestControllerConvergesUnderChaos(t *testing.T) {
	for _, seed := range []int64{20230815, 424242} {
		b1, got, want := runControllerUnderChaos(t, seed)
		// Schedules end with FinalRecovery, so the post-schedule world is
		// healthy: the controller's last syncs must have converged back to
		// within 1% of a cold full solve.
		if got < 0.99*want-1e-9 {
			t.Errorf("seed %d: controller benefit %.3f below 99%% of cold solve %.3f",
				seed, got, want)
		}
		b2, _, _ := runControllerUnderChaos(t, seed)
		if !bytes.Equal(b1, b2) {
			t.Errorf("seed %d: same-seed runs produced different timelines/configs", seed)
		}
	}
}

// TestControllerSurvivesEveryEventKind replays a schedule that is
// guaranteed to contain every kind (DefaultGenConfig exercises all) and
// asserts the controller never errors and never advertises a dead
// peering at any tick.
func TestControllerNeverAdvertisesDeadPeerings(t *testing.T) {
	g, d, fresh := testRig(t)
	w := fresh()
	ugs, err := usergroup.Build(g, usergroup.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(w, ugs, core.ControllerParams{Solver: core.DefaultParams(5)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()

	sched, err := Generate(g, d, DefaultGenConfig(777))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, d, sched, func(tick int, w *netsim.World) error {
		cfg, _, err := ctrl.Sync()
		if err != nil {
			return err
		}
		for pi, S := range cfg.Prefixes {
			for _, ing := range S {
				if w.IngressDown(ing) {
					t.Errorf("tick %d: prefix %d advertises dead ingress %d", tick, pi, ing)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
