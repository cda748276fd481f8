package figures

// Scale benchmark: builds each requested scale end-to-end (topology →
// deployment → world → UGs → orchestrator inputs) and runs one full
// advertise→measure→learn solve, recording wall-clock and memory per
// scale. The azure row is the headline: >=10^4 ASes and >=10^5 UGs
// through a complete solve, with the flat solver/netsim state keeping
// retained bytes per UG flat as the population grows.

import (
	"fmt"
	"runtime"
	"time"

	"painter/internal/core"
	"painter/internal/experiments"
)

// ScaleBenchConfig parameterizes the scale sweep.
type ScaleBenchConfig struct {
	Seed   int64
	Scales []experiments.Scale
}

// scaleBenchBudget caps the prefix budget at every scale so the sweep
// measures scaling of the grow loop, not budget size.
const scaleBenchBudget = 8

// ScaleBenchRow is one scale's numbers.
type ScaleBenchRow struct {
	Scale    string
	ASes     int
	Peerings int
	PoPs     int
	UGs      int
	Budget   int
	Prefixes int

	// BuildMs is environment construction (topology, deployment, world,
	// UGs, anycast baseline); SolveMs is the full solve: orchestrator
	// construction plus every advertise→measure→learn iteration.
	BuildMs float64
	SolveMs float64

	// BytesPerUG is the retained heap delta across the solve (post-GC)
	// divided by UG count — the resident cost of solver + warmed
	// simulator hot state per user group.
	BytesPerUG float64
	// SolveMallocs counts heap allocations during the solve.
	SolveMallocs uint64

	// PredictedBenefit is Eq. (1)'s mean for the solved configuration.
	PredictedBenefit float64
}

// ScaleBenchReport is the sweep: one row per scale.
type ScaleBenchReport struct {
	Seed int64
	Rows []ScaleBenchRow
}

// RunScaleBench runs the sweep. Each scale is built fresh so earlier
// rows' caches cannot subsidize later ones.
func RunScaleBench(cfg ScaleBenchConfig) (*ScaleBenchReport, error) {
	if len(cfg.Scales) == 0 {
		cfg.Scales = []experiments.Scale{experiments.ScaleSmall, experiments.ScalePEERING, experiments.ScaleAzure}
	}
	rep := &ScaleBenchReport{Seed: cfg.Seed}
	for _, sc := range cfg.Scales {
		row, err := runScaleOnce(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("figures: scale bench %s: %w", sc, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func runScaleOnce(sc experiments.Scale, cfg ScaleBenchConfig) (ScaleBenchRow, error) {
	t0 := time.Now()
	env, err := experiments.NewEnv(sc, cfg.Seed)
	if err != nil {
		return ScaleBenchRow{}, err
	}
	buildMs := msSince(t0)

	budget := min(scaleBenchBudget, len(env.Deploy.AllPeeringIDs()))
	params := core.DefaultParams(budget)
	params.MaxPeeringsPerPrefix = 16
	params.MaxIterations = 2

	exec := core.NewWorldExecutor(env.World, env.UGs, 0, cfg.Seed+5)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	t1 := time.Now()
	o, err := core.New(env.Inputs, exec, params)
	if err != nil {
		return ScaleBenchRow{}, err
	}
	solved, err := o.Solve()
	if err != nil {
		return ScaleBenchRow{}, err
	}
	solveMs := msSince(t1)

	runtime.ReadMemStats(&m1)
	mallocs := m1.Mallocs - m0.Mallocs
	var m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m2)
	var retained float64
	if m2.HeapAlloc > m0.HeapAlloc {
		retained = float64(m2.HeapAlloc - m0.HeapAlloc)
	}

	mean, _, _ := o.PredictBenefit(solved)
	row := ScaleBenchRow{
		Scale:            sc.String(),
		ASes:             env.Graph.Len(),
		Peerings:         len(env.Deploy.AllPeeringIDs()),
		PoPs:             len(env.Deploy.PoPs),
		UGs:              env.UGs.Len(),
		Budget:           budget,
		Prefixes:         len(solved.Prefixes),
		BuildMs:          buildMs,
		SolveMs:          solveMs,
		BytesPerUG:       retained / float64(env.UGs.Len()),
		SolveMallocs:     mallocs,
		PredictedBenefit: mean,
	}
	// Keep env alive past the post-solve GC so the retained-heap delta
	// reflects solver + simulator state, not a partially collected env.
	runtime.KeepAlive(env)
	runtime.KeepAlive(o)
	return row, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// Table renders the report for painter-bench.
func (r *ScaleBenchReport) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("scale sweep (seed %d)", r.Seed),
		Header: []string{"scale", "ases", "peerings", "pops", "ugs", "budget", "prefixes", "build ms", "solve ms", "bytes/ug", "mallocs", "predicted ms"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scale,
			fmt.Sprintf("%d", row.ASes),
			fmt.Sprintf("%d", row.Peerings),
			fmt.Sprintf("%d", row.PoPs),
			fmt.Sprintf("%d", row.UGs),
			fmt.Sprintf("%d", row.Budget),
			fmt.Sprintf("%d", row.Prefixes),
			fmt.Sprintf("%.0f", row.BuildMs),
			fmt.Sprintf("%.0f", row.SolveMs),
			fmt.Sprintf("%.0f", row.BytesPerUG),
			fmt.Sprintf("%d", row.SolveMallocs),
			fmt.Sprintf("%.2f", row.PredictedBenefit),
		})
	}
	return t
}
