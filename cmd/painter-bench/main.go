// Command painter-bench regenerates the paper's tables and figures on
// the simulated substrate. Each experiment prints the same rows/series
// the paper reports.
//
// Usage:
//
//	painter-bench -list                   # show experiment ids
//	painter-bench -exp fig6a              # one experiment
//	painter-bench -exp all                # everything (slow at -scale azure)
//	painter-bench -exp fig6b -scale peering -seed 7 -iters 3
//	painter-bench -exp fig6a -metrics-dump obs.jsonl
//	painter-bench -exp all -scale azure -skip-slow   # sweeps become SKIP lines
//	painter-bench -exp all -time-budget 5m           # stop starting new experiments after 5m
//
// Performance is measured elsewhere: the benchmark is bench/ +
// BENCHMARK.json (bash bench/run.sh, -trace 1 for the per-layer pass).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"painter/internal/bgp"
	"painter/internal/experiments"
	"painter/internal/figures"
	"painter/internal/obs"
)

// runCtx carries shared state into experiment run functions.
type runCtx struct {
	env   *experiments.Env
	seed  int64
	iters int
	// fig6aRows is cached so fig14 (a re-projection of the same sweep)
	// reuses fig6a's rows instead of re-solving.
	fig6aRows []figures.Fig6aResult
}

func (c *runCtx) fig6a() ([]figures.Fig6aResult, error) {
	if c.fig6aRows == nil {
		rows, err := figures.RunFig6a(c.env, nil, c.iters)
		if err != nil {
			return nil, err
		}
		c.fig6aRows = rows
	}
	return c.fig6aRows, nil
}

// experiment is one reproducible figure/table.
type experiment struct {
	id       string
	desc     string
	needsEnv bool
	// slow marks experiments that run full solver sweeps — the ones
	// -skip-slow elides and the time budget guards, so `-exp all
	// -scale azure` degrades to explicit SKIP lines instead of hanging.
	slow bool
	run  func(c *runCtx) error
}

// experimentList holds every experiment in run order. fig6a precedes
// fig14 so an "all" run computes the shared sweep once.
var experimentList = []experiment{
	{"fig3", "latency-vs-geodistance analysis of the measurement corpus", false, false, func(c *runCtx) error {
		return show(figures.Fig3Table)(figures.RunFig3())
	}},
	{"fig8", "prefix-generalization model comparison", false, false, func(c *runCtx) error {
		fmt.Println(figures.Fig8Table(figures.RunFig8()))
		return nil
	}},
	{"fig10", "TM failover timeline on a live UDP edge/PoP pair", false, false, func(c *runCtx) error {
		return show(figures.Fig10Table)(figures.RunFig10(figures.DefaultFig10Config()))
	}},
	{"fig6a", "median latency improvement vs prefix budget", true, true, func(c *runCtx) error {
		return show(figures.Fig6aTable)(c.fig6a())
	}},
	{"fig14", "per-UG improvement distribution (reuses the fig6a sweep)", true, true, func(c *runCtx) error {
		return show(figures.Fig14Table)(c.fig6a())
	}},
	{"fig6b", "improvement vs number of PoPs", true, true, func(c *runCtx) error {
		return show(figures.Fig6bTable)(figures.RunFig6b(c.env, nil, c.iters))
	}},
	{"fig6c", "improvement vs learning iterations at a fixed budget", true, true, func(c *runCtx) error {
		budget := c.env.Budgets([]float64{0.1})[0]
		return show(figures.Fig6cTable)(figures.RunFig6c(c.env, budget, 4))
	}},
	{"fig7", "latency CDFs at small prefix budgets", true, true, func(c *runCtx) error {
		budgets := c.env.Budgets([]float64{0.002, 0.021})
		return show(figures.Fig7Table)(figures.RunFig7(c.env, budgets, 25, c.iters))
	}},
	{"fig9a", "anycast vs unicast ingress latency", true, false, func(c *runCtx) error {
		return show(figures.Fig9aTable)(figures.RunFig9a(c.env))
	}},
	{"fig9b", "PAINTER vs anycast improvement by budget", true, true, func(c *runCtx) error {
		return show(figures.Fig9bTable)(figures.RunFig9b(c.env, nil, c.iters))
	}},
	{"fig11a", "failover latency inflation to the next-best ingress", true, false, func(c *runCtx) error {
		return show(figures.Fig11aTable)(figures.RunFig11a(c.env))
	}},
	{"fig11b", "ingress diversity under failure", true, false, func(c *runCtx) error {
		return show(figures.Fig11bTable)(figures.RunFig11b(c.env))
	}},
	{"fig12a", "latency during PoP maintenance", true, false, func(c *runCtx) error {
		return show(figures.Fig12aTable)(figures.RunFig12a(c.env))
	}},
	{"fig12b", "latency during peering maintenance", true, false, func(c *runCtx) error {
		return show(figures.Fig12bTable)(figures.RunFig12b(c.env))
	}},
	{"fig15a", "update-rate sensitivity (announcement churn)", true, true, func(c *runCtx) error {
		return show(figures.Fig15aTable)(figures.RunFig15a(c.env, nil, 1))
	}},
	{"chaos", "randomized failure injection with TM failover", true, true, func(c *runCtx) error {
		return show((*figures.ChaosFailoverResult).Table)(figures.RunChaosFailover(c.env, c.seed))
	}},
	{"detect", "catchment-drift detection latency under PoP outages (twin-run determinism check)", true, true, func(c *runCtx) error {
		return show((*figures.DetectBenchResult).Table)(figures.RunDetectBench(c.env))
	}},
	{"scale", "solve wall-clock and memory across small/peering/azure", false, true, func(c *runCtx) error {
		return show((*figures.ScaleBenchReport).Table)(figures.RunScaleBench(figures.ScaleBenchConfig{Seed: c.seed}))
	}},
	{"validation", "policy-compliance validation of simulated routing", true, false, func(c *runCtx) error {
		return show(figures.ComplianceValidationTable)(figures.RunComplianceValidation(c.env))
	}},
	{"ablations", "component ablations at a fixed budget", true, true, func(c *runCtx) error {
		budget := c.env.Budgets([]float64{0.03})[0]
		return show(figures.AblationTable)(figures.RunAblations(c.env, budget))
	}},
	{"fig15b", "prefix-count sensitivity (announcement churn)", true, true, func(c *runCtx) error {
		return show(figures.Fig15bTable)(figures.RunFig15b(c.env, nil, 1))
	}},
}

// show returns a printer for one runner's result: it prints the
// result's table, or passes the runner's error on.
func show[R any](table func(R) figures.Table) func(R, error) error {
	return func(res R, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(table(res))
		return nil
	}
}

func main() {
	var (
		expName = flag.String("exp", "all", `experiment id(s), comma-separated, or "all" (see -list)`)
		scale   = flag.String("scale", "peering", "environment scale: small, peering, azure")
		seed    = flag.Int64("seed", 7, "world seed")
		iters   = flag.Int("iters", 2, "orchestrator learning iterations")
		list    = flag.Bool("list", false, "print experiment ids with descriptions and exit")
		dump    = flag.String("metrics-dump", "", `append one JSON obs snapshot per experiment to this file ("-" = stdout)`)
		skip    = flag.Bool("skip-slow", false, "skip solver-sweep experiments (explicit SKIP lines)")
		budget  = flag.Duration("time-budget", 0, "stop starting new experiments once this much wall time has elapsed (0 = unlimited)")
	)
	flag.Parse()

	if *list {
		for _, e := range experimentList {
			fmt.Printf("%-11s %s\n", e.id, e.desc)
		}
		return
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	known := map[string]bool{}
	for _, e := range experimentList {
		known[e.id] = true
	}
	wants := map[string]bool{}
	for _, e := range strings.Split(*expName, ",") {
		id := strings.TrimSpace(e)
		if id != "all" && !known[id] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		wants[id] = true
	}
	all := wants["all"]
	want := func(id string) bool { return all || wants[id] }

	// The bench registry collects bgp.Propagate instruments; with
	// -metrics-dump each experiment appends its merged snapshot.
	reg := obs.NewRegistry()
	bgp.InstrumentPropagate(reg)
	var dumpFile *os.File
	if *dump == "-" {
		dumpFile = os.Stdout
	} else if *dump != "" {
		f, err := os.OpenFile(*dump, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dumpFile = f
	}

	ctx := &runCtx{seed: *seed, iters: *iters}
	needEnv := false
	for _, e := range experimentList {
		if e.needsEnv && want(e.id) && !(*skip && e.slow) {
			needEnv = true
		}
	}
	if needEnv {
		fmt.Fprintf(os.Stderr, "building %s-scale environment (seed %d)...\n", sc, *seed)
		start := time.Now()
		env, err := experiments.NewEnv(sc, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "environment ready in %v: %d PoPs, %d peerings, %d UGs\n",
			time.Since(start).Truncate(time.Millisecond),
			len(env.Deploy.PoPs), len(env.Deploy.AllPeeringIDs()), env.UGs.Len())
		ctx.env = env
	}

	runStart := time.Now()
	for _, e := range experimentList {
		if !want(e.id) {
			continue
		}
		if *skip && e.slow {
			fmt.Fprintf(os.Stderr, "SKIP %s (slow experiment, -skip-slow)\n", e.id)
			continue
		}
		if *budget > 0 && time.Since(runStart) > *budget {
			fmt.Fprintf(os.Stderr, "SKIP %s (time budget %v exhausted)\n", e.id, *budget)
			continue
		}
		start := time.Now()
		if err := e.run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", e.id, elapsed.Truncate(time.Millisecond))
		if dumpFile != nil {
			if err := writeDump(dumpFile, e.id, elapsed, ctx, reg); err != nil {
				fatal(err)
			}
		}
	}
}

// writeDump appends one JSON line: the experiment id, wall time, and
// the merged obs snapshot (bench registry + the world's, when built).
func writeDump(f *os.File, id string, elapsed time.Duration, ctx *runCtx, reg *obs.Registry) error {
	snaps := []obs.RegistrySnapshot{reg.Snapshot()}
	if ctx.env != nil {
		snaps = append(snaps, ctx.env.World.Obs().Snapshot())
	}
	rec := struct {
		Experiment string               `json:"experiment"`
		ElapsedSec float64              `json:"elapsed_sec"`
		Obs        obs.RegistrySnapshot `json:"obs"`
	}{id, elapsed.Seconds(), obs.MergeSnapshots(snaps...)}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = f.Write(b)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
