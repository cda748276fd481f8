// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact; see DESIGN.md's experiment
// index), plus microbenchmarks of the load-bearing machinery and
// ablations of PAINTER's design choices.
//
// Figures run at ScaleSmall so `go test -bench=.` completes quickly;
// cmd/painter-bench reproduces them at paper scale.
package painter_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"painter/internal/advertise"
	"painter/internal/bgp"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/figures"
	"painter/internal/tmproto"
	"painter/internal/topology"
)

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
	envErr   error
)

func getEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		benchEnv, envErr = experiments.NewEnv(experiments.ScaleSmall, 7)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	benchEnv.World.SetDay(0)
	return benchEnv
}

// --- One benchmark per paper artifact --------------------------------------

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6a(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig6a(env, []float64{0.05, 0.3, 1.0}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6b(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig6b(env, []float64{0.1, 1.0}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6c(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig6c(env, 6, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig7(env, []int{4}, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9a(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig9a(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9b(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig9b(env, []float64{0.3, 1.0}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	cfg := figures.DefaultFig10Config()
	cfg.PreFail = 500 * time.Millisecond
	cfg.PostFail = 700 * time.Millisecond
	cfg.AnycastOutage = 200 * time.Millisecond
	cfg.ConvergeAfter = 400 * time.Millisecond
	for i := 0; i < b.N; i++ {
		res, err := figures.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.SwitchedAfter <= 0 {
			b.Fatal("no failover")
		}
		b.ReportMetric(float64(res.SwitchedAfter)/1e6, "failover-ms")
		b.ReportMetric(res.DetectionRTTs, "detect-RTTs")
	}
}

func BenchmarkFig11a(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig11a(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11b(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig11b(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig12a(env); err != nil {
			b.Fatal(err)
		}
		if _, err := figures.RunFig12b(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	// Fig. 14 is the range rendering of the Fig. 6a sweep; benchmark the
	// range evaluation itself.
	env := getEnv(b)
	cfg := advertise.OnePerPoP(env.Deploy, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateRange(env.World, env.UGs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15a(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig15a(env, []float64{0.5, 1.0}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15b(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.RunFig15b(env, []float64{1000, 3000}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrchestratorSolve measures one full Algorithm-1 computation
// (the §4 "30 seconds per prefix at Azure scale" claim, scaled down).
func BenchmarkOrchestratorSolve(b *testing.B) {
	env := getEnv(b)
	params := core.DefaultParams(8)
	params.MaxIterations = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := core.New(env.Inputs, nil, params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveLearned is the whole of Algorithm 1's outer loop — four
// advertise/measure/learn rounds against the simulated world — so, unlike
// the offline solves around it, iterations two to four grow every prefix
// over states that carry learned preference facts. The small run is the
// test-scale loop; the peering run is the benchmark's solve-cold solve
// (prototype scale, world seed 7, budget 61), where the grow loop
// dominates.
func BenchmarkSolveLearned(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		benchSolveLearned(b, getEnv(b), 8)
	})
	b.Run("peering", func(b *testing.B) {
		env, err := experiments.NewEnv(experiments.ScalePEERING, 7)
		if err != nil {
			b.Fatal(err)
		}
		benchSolveLearned(b, env, 61)
	})
}

func benchSolveLearned(b *testing.B, env *experiments.Env, budget int) {
	params := core.DefaultParams(budget)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := core.New(env.Inputs, core.NewWorldExecutor(env.World, env.UGs, 0, 7), params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Solve(); err != nil {
			b.Fatal(err)
		}
		facts := 0
		for _, rep := range o.Reports() {
			facts += rep.FactsLearned
		}
		if facts == 0 {
			b.Fatal("solve learned no preference facts")
		}
		b.ReportMetric(float64(facts), "facts/op")
	}
}

// BenchmarkFailoverDetection runs repeated failovers and reports the
// distribution the §5.2.3 text cites (detection typically ≈1.3 RTT).
func BenchmarkFailoverDetection(b *testing.B) {
	cfg := figures.DefaultFig10Config()
	cfg.PreFail = 400 * time.Millisecond
	cfg.PostFail = 500 * time.Millisecond
	cfg.AnycastOutage = 150 * time.Millisecond
	cfg.ConvergeAfter = 300 * time.Millisecond
	var total float64
	n := 0
	for i := 0; i < b.N; i++ {
		res, err := figures.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.DetectionRTTs > 0 {
			total += res.DetectionRTTs
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(total/float64(n), "mean-detect-RTTs")
	}
}

// --- Ablations of design choices (DESIGN.md) --------------------------------

// BenchmarkAblationReuse compares PAINTER with and without prefix reuse
// at equal budget, reporting the benefit each attains.
func BenchmarkAblationReuse(b *testing.B) {
	env := getEnv(b)
	run := func(maxPer int) float64 {
		params := core.DefaultParams(5)
		params.MaxIterations = 1
		params.MaxPeeringsPerPrefix = maxPer
		o, err := core.New(env.Inputs, nil, params)
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := o.Solve()
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Evaluate(env.World, env.UGs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Benefit
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := run(0)    // unlimited reuse
		without := run(1) // one peering per prefix: no reuse
		b.ReportMetric(with, "with-reuse-ms")
		b.ReportMetric(without, "no-reuse-ms")
	}
}

// BenchmarkAblationLearning compares 1 vs 4 learning iterations.
func BenchmarkAblationLearning(b *testing.B) {
	env := getEnv(b)
	run := func(iters int) float64 {
		params := core.DefaultParams(6)
		params.MaxIterations = iters
		params.MinIterBenefitGain = -1
		exec := core.NewWorldExecutor(env.World, env.UGs, 0.5, 999)
		o, err := core.New(env.Inputs, exec, params)
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := o.Solve()
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Evaluate(env.World, env.UGs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Benefit
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(1), "iter1-ms")
		b.ReportMetric(run(4), "iter4-ms")
	}
}

// BenchmarkAblationExactGreedy compares the realized benefit of lazy
// greedy with exact greedy (Params.ExactGreedy). Neither is an optimum:
// Eq. (2) is not submodular, and no exhaustive search runs here.
func BenchmarkAblationExactGreedy(b *testing.B) {
	env := getEnv(b)
	run := func(exact bool) float64 {
		params := core.DefaultParams(4)
		params.MaxIterations = 1
		params.ExactGreedy = exact
		o, err := core.New(env.Inputs, nil, params)
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := o.Solve()
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Evaluate(env.World, env.UGs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Benefit
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "lazy-ms")
		b.ReportMetric(run(true), "exact-ms")
	}
}

// --- Microbenchmarks of the load-bearing machinery ---------------------------

func BenchmarkCompliantIngressIDs(b *testing.B) {
	env := getEnv(b)
	ugs := env.UGs.UGs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ugs[i%len(ugs)]
		if _, err := env.World.CompliantIngressIDs(u.ASN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	env := getEnv(b)
	cfg := advertise.OnePerPoP(env.Deploy, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(env.World, env.UGs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBGPUpdateMarshal(b *testing.B) {
	u := bgp.Update{
		Origin:  bgp.OriginIGP,
		ASPath:  []uint16{64500, 65001, 65002},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBGPUpdateParse(b *testing.B) {
	u := bgp.Update{
		Origin:  bgp.OriginIGP,
		ASPath:  []uint16{64500, 65001, 65002},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	}
	raw, err := u.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.ParseUpdate(raw[19:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTMEncapsulate(b *testing.B) {
	flow := tmproto.FlowKey{
		Proto: 6,
		Src:   netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("203.0.113.1"),
		SrcPort: 40000, DstPort: 443,
	}
	payload := make([]byte, 1400)
	buf := make([]byte, 0, 1500)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := tmproto.AppendData(buf[:0], tmproto.Data{Flow: flow, Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

func BenchmarkTMDecapsulate(b *testing.B) {
	flow := tmproto.FlowKey{
		Proto: 6,
		Src:   netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("203.0.113.1"),
		SrcPort: 40000, DstPort: 443,
	}
	raw, err := tmproto.AppendData(nil, tmproto.Data{Flow: flow, Payload: make([]byte, 1400)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tmproto.ParseData(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyGenerate(b *testing.B) {
	cfg := topology.GenConfig{Seed: 1, Tier1: 8, Tier2: 60, Stubs: 800,
		MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.35, ContentFrac: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topology.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComplianceValidation measures the §3.1 validation pipeline:
// harvest AS paths, infer relationships, check observed selections.
func BenchmarkComplianceValidation(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := figures.RunComplianceValidation(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*v.ViolationRate, "violation-pct")
	}
}
