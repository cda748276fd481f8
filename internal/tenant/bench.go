package tenant

// N-tenant steady-state churn benchmark: how does one painterd-style
// process behave as the tenant count grows? For each tenant count the
// bench reconciles N small-scale tenants (distinct seeds, distinct
// default-profile fault schedules) into one Manager, then drives every
// tenant's full schedule concurrently — one goroutine per tenant, one
// manual Step per tick — timing each Sync. Headlines per row: events
// synced per second across the fleet and the p50/p99 per-Sync latency,
// the numbers that say whether tenant count degrades per-tenant
// responsiveness.

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"painter/internal/benchmeta"
	"painter/internal/experiments"
)

// BenchConfig parameterizes the churn benchmark.
type BenchConfig struct {
	// Counts are the tenant counts to sweep (default 1, 4, 16).
	Counts []int
	// Seed derives every tenant's world and schedule seed.
	Seed int64
	// Ticks is each tenant's fault-schedule length (default 40, the
	// chaos default).
	Ticks int
}

// BenchRow is one tenant-count measurement.
type BenchRow struct {
	Tenants int `json:"tenants"`
	// BuildMs is the wall time to reconcile all N worlds into existence.
	BuildMs float64 `json:"build_ms"`
	// WallMs is the wall time for the concurrent churn phase (every
	// tenant's full schedule, driven in parallel).
	WallMs float64 `json:"wall_ms"`
	// Syncs and Events are fleet-wide totals for the churn phase.
	Syncs  uint64 `json:"syncs"`
	Events uint64 `json:"events"`
	// EventsPerSec is Events / wall seconds — fleet churn throughput.
	EventsPerSec float64 `json:"events_per_sec"`
	SyncsPerSec  float64 `json:"syncs_per_sec"`
	// P50SyncMs / P99SyncMs summarize individual Sync latencies across
	// every tenant.
	P50SyncMs float64 `json:"p50_sync_ms"`
	P99SyncMs float64 `json:"p99_sync_ms"`
}

// BenchResult is the benchmark outcome; it marshals directly to
// BENCH_TENANTS.json. Meta stays zero here (deterministic library
// code); cmd/painter-bench stamps it just before writing.
type BenchResult struct {
	benchmeta.Meta
	Scale string     `json:"scale"`
	Seed  int64      `json:"seed"`
	Ticks int        `json:"ticks"`
	Rows  []BenchRow `json:"rows"`
}

// RunBench sweeps the configured tenant counts.
func RunBench(cfg BenchConfig) (*BenchResult, error) {
	if len(cfg.Counts) == 0 {
		cfg.Counts = []int{1, 4, 16}
	}
	if cfg.Ticks <= 0 {
		cfg.Ticks = 40
	}
	res := &BenchResult{Scale: "small", Seed: cfg.Seed, Ticks: cfg.Ticks}
	for _, n := range cfg.Counts {
		row, err := runBenchCount(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("tenant bench (n=%d): %w", n, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runBenchCount(cfg BenchConfig, n int) (BenchRow, error) {
	// Lifecycle logging is per-tenant noise at bench scale: drop it.
	m := NewManager(Params{
		ReconcileInterval: time.Hour,
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer m.Close()

	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("t%02d", i)
		spec := Spec{
			Scale: "small", Seed: cfg.Seed + int64(i)*17,
			TickMs: 1, Paused: true,
			Chaos: ChaosSpec{
				Profile: "default",
				Seed:    cfg.Seed + 100 + int64(i),
				Ticks:   cfg.Ticks,
			},
		}
		if _, err := m.Apply(ids[i], spec, 0); err != nil {
			return BenchRow{}, err
		}
	}
	buildStart := time.Now()
	m.Reconcile()
	buildMs := float64(time.Since(buildStart).Nanoseconds()) / 1e6
	for _, id := range ids {
		st, ok := m.Status(id)
		if !ok {
			return BenchRow{}, fmt.Errorf("tenant %s never built", id)
		}
		if st.Error != "" {
			return BenchRow{}, fmt.Errorf("tenant %s failed: %s", id, st.Error)
		}
	}

	// Churn phase: every tenant's schedule driven concurrently to
	// completion, each Step timed individually.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		syncMs  []float64
		isolErr error
	)
	wallStart := time.Now()
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			st, _ := m.Status(id)
			local := make([]float64, 0, st.ScheduleTicks+2)
			for i := 0; i < st.ScheduleTicks+2; i++ {
				t0 := time.Now()
				if _, err := m.Step(id); err != nil {
					mu.Lock()
					if isolErr == nil {
						isolErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			mu.Lock()
			syncMs = append(syncMs, local...)
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	wall := time.Since(wallStart)
	if isolErr != nil {
		return BenchRow{}, isolErr
	}

	row := BenchRow{Tenants: n, BuildMs: buildMs,
		WallMs: float64(wall.Nanoseconds()) / 1e6}
	for _, id := range ids {
		st, _ := m.Status(id)
		if !st.ScheduleDone {
			return BenchRow{}, fmt.Errorf("tenant %s did not finish its schedule", id)
		}
		row.Syncs += st.Syncs
		row.Events += st.EventsApplied
	}
	secs := wall.Seconds()
	if secs > 0 {
		row.EventsPerSec = float64(row.Events) / secs
		row.SyncsPerSec = float64(row.Syncs) / secs
	}
	sort.Float64s(syncMs)
	row.P50SyncMs = benchQuantile(syncMs, 0.50)
	row.P99SyncMs = benchQuantile(syncMs, 0.99)
	return row, nil
}

// benchQuantile is nearest-rank on an already-sorted slice.
func benchQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// Table renders the result for painter-bench.
func (r *BenchResult) Table() experiments.Table {
	t := experiments.Table{
		Title: fmt.Sprintf("multi-tenant steady-state churn (%s scale, %d-tick schedules, seed %d)",
			r.Scale, r.Ticks, r.Seed),
		Header: []string{"tenants", "build ms", "wall ms", "syncs", "events",
			"events/s", "p50 sync ms", "p99 sync ms"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Tenants),
			fmt.Sprintf("%.0f", row.BuildMs),
			fmt.Sprintf("%.0f", row.WallMs),
			fmt.Sprintf("%d", row.Syncs),
			fmt.Sprintf("%d", row.Events),
			fmt.Sprintf("%.0f", row.EventsPerSec),
			fmt.Sprintf("%.3f", row.P50SyncMs),
			fmt.Sprintf("%.3f", row.P99SyncMs),
		})
	}
	return t
}
