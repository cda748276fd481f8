package core_test

// Solve() pinned to recorded configurations. testdata/solve_<scale>_seed7.json
// is Config.MarshalJSON of a full Algorithm 1 run (WorldExecutor, the
// default four learning iterations, budget 30 % of the peerings — the
// solve-cold benchmark's instance at peering scale), recorded at commit
// e901d96, before learned preferences moved from maps to bitset rows. The
// files are not regenerated: a change that alters them changes which
// configuration the orchestrator computes.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"painter/internal/core"
	"painter/internal/experiments"
)

func TestSolveMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale experiments.Scale
	}{
		{"small", experiments.ScaleSmall},
		{"peering", experiments.ScalePEERING},
	} {
		if tc.scale == experiments.ScalePEERING && testing.Short() {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("solve_%s_seed7.json", tc.name)))
		if err != nil {
			t.Fatal(err)
		}
		want = bytes.TrimSpace(want)
		for _, workers := range []int{1, 4} {
			env, err := experiments.NewEnv(tc.scale, 7)
			if err != nil {
				t.Fatal(err)
			}
			p := core.DefaultParams(max(1, 3*len(env.Deploy.AllPeeringIDs())/10))
			p.Workers = workers
			o, err := core.New(env.Inputs, core.NewWorldExecutor(env.World, env.UGs, 0, 7), p)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := o.Solve()
			if err != nil {
				t.Fatal(err)
			}
			got, err := cfg.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s scale, Workers %d: Solve() = %d prefixes / %d advertisements in %d bytes, differs from the recorded %d bytes\ngot  %s\nwant %s",
					tc.name, workers, cfg.NumPrefixes(), cfg.TotalAdvertisements(), len(got), len(want), got, want)
			}
			if len(o.Reports()) != 4 {
				t.Errorf("%s scale, Workers %d: %d learning iterations, want 4", tc.name, workers, len(o.Reports()))
			}
		}
	}
}
