// Command bench is the repository's benchmark: four workloads over the
// whole PAINTER loop, end-to-end metrics with regression bounds, and a
// traced pass that attributes time to layers. README.md in this
// directory says what is measured and why; BENCHMARK.json at the root
// of the repository is the contract a driver runs it under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"painter/internal/benchmeta"
	"painter/internal/experiments"
)

// sizing holds every size a workload runs at. All of it derives from
// -seconds (and -smoke), and all of it is written into each result
// file, so two results are comparable exactly when their sizing is
// equal.
type sizing struct {
	Scale experiments.Scale `json:"-"`
	// ScaleName is Scale spelled out for the result file.
	ScaleName string `json:"scale"`
	WorldSeed int64  `json:"world_seed"`

	SolveMinReps    int     `json:"solve_min_reps"`
	SolveMaxReps    int     `json:"solve_max_reps"`
	SolveBudgetFrac float64 `json:"solve_budget_frac"`
	// SolveExtraSetups is how many world builds solve-cold times beside
	// the one per rep.
	SolveExtraSetups int `json:"solve_extra_setups"`

	ChurnTenants int `json:"churn_tenants"`
	ChurnTicks   int `json:"churn_ticks"`
	SoloTicks    int `json:"solo_ticks"`

	EchoPhaseSec  float64 `json:"echo_phase_seconds"`
	EchoFlows     int     `json:"echo_flows"`
	EchoWindow    int     `json:"echo_window"`
	EchoRate      float64 `json:"echo_open_loop_rate"`
	EchoSmallB    int     `json:"echo_small_bytes"`
	EchoLargeB    int     `json:"echo_large_bytes"`
	EchoSetups    int     `json:"echo_setups"`
	EchoResolves  int     `json:"echo_resolves"`
	EchoPopRawSec float64 `json:"echo_pop_raw_seconds"`

	FaultTrials     int   `json:"fault_trials"`
	FaultFlows      int   `json:"fault_pinned_flows"`
	FaultTrialFlows int   `json:"fault_trial_flows"`
	FaultBudget     int   `json:"fault_budget"`
	FaultProbeMs    int   `json:"fault_probe_interval_ms"`
	FaultDelaysMs   []int `json:"fault_one_way_delays_ms"`

	DeltaDraws  int `json:"probe_delta_draws"`
	EventProbes int `json:"probe_events"`
}

// sizeFor derives the sizing. At the -seconds BENCHMARK.json records
// (30) it yields 5 solves, 500 ticks per tenant, 5 s echo phases and 40
// fault trials, which on two cores is 36 s of solving, 36 s of ticks,
// 15 s of echo and 10 s of trials; a longer run grows every size, a
// shorter one stops at the floors (5 solves, 1,000 tick samples, 5 s
// per echo phase, 30 trials) below which the medians and tails are not
// worth bounding.
func sizeFor(seconds int, smoke bool) sizing {
	if smoke {
		return sizing{
			Scale: experiments.ScaleSmall, ScaleName: "small", WorldSeed: worldSeed,
			SolveMinReps: 2, SolveMaxReps: 2, SolveBudgetFrac: 0.3, SolveExtraSetups: 2,
			ChurnTenants: 2, ChurnTicks: 40, SoloTicks: 20,
			EchoPhaseSec: 0.25, EchoFlows: 4096, EchoWindow: 64, EchoRate: 5000,
			EchoSmallB: 16, EchoLargeB: 1200, EchoSetups: 2, EchoResolves: 10, EchoPopRawSec: 0.2,
			FaultTrials: 3, FaultFlows: 500, FaultTrialFlows: 100, FaultBudget: 6, FaultProbeMs: 5,
			FaultDelaysMs: []int{10, 12, 14},
			DeltaDraws:    10, EventProbes: 20,
		}
	}
	atLeast := func(v, floor int) int {
		if v < floor {
			return floor
		}
		return v
	}
	phase := float64(seconds) / 6
	if phase < 5 {
		phase = 5
	}
	return sizing{
		Scale: experiments.ScalePEERING, ScaleName: "peering", WorldSeed: worldSeed,
		SolveMinReps: 5, SolveMaxReps: 15, SolveBudgetFrac: 0.3, SolveExtraSetups: 20,
		ChurnTenants: 2, ChurnTicks: atLeast(50*seconds/3, 500), SoloTicks: 100,
		EchoPhaseSec: phase, EchoFlows: 65536, EchoWindow: 256, EchoRate: 50000,
		EchoSmallB: 16, EchoLargeB: 1200, EchoSetups: 5, EchoResolves: 200, EchoPopRawSec: 2,
		FaultTrials: atLeast(4*seconds/3, 30), FaultFlows: 10000, FaultTrialFlows: 1000, FaultBudget: 20, FaultProbeMs: 5,
		FaultDelaysMs: []int{10, 12, 14},
		DeltaDraws:    200, EventProbes: 200,
	}
}

// result is what one workload run produced.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Violations are correctness failures: wrong outputs, not slow ones.
	Violations []string           `json:"violations,omitempty"`
	Named      map[string]float64 `json:"named_metrics"`
	E2E        map[string]float64 `json:"end_to_end,omitempty"`
	Layer      map[string]float64 `json:"per_layer,omitempty"`
	Samples    map[string]int     `json:"samples"`
	Notes      []string           `json:"notes,omitempty"`
	WallSec    float64            `json:"wall_seconds"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced,
		Named: map[string]float64{}, E2E: map[string]float64{}, Layer: map[string]float64{}, Samples: map[string]int{}}
}

// fail records one failed operation and why.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.violate(format, args...)
}

// violate records a correctness violation that is not one operation's.
func (r *result) violate(format string, args ...any) {
	if len(r.Violations) < 50 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Violations) == 0 }

// runCtx is what a workload needs to run.
type runCtx struct {
	seed    int64
	seconds int
	trace   bool
	sz      sizing
	t       *tracing
	res     *result
}

// provenance is stamped into every result file.
type provenance struct {
	benchmeta.Meta
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	Sizing     sizing  `json:"sizing"`
	Network    string  `json:"network"`
	Result     *result `json:"result"`
}

const loopbackNote = "all sockets are on the host's loopback interface; path delay comes from emul.Link relays, not a wire"

// workloads maps a name to the function that runs it and the one that
// turns a traced run's bench spans into per-layer rows.
var workloads = map[string]struct {
	run   func(*runCtx) error
	spans func(map[string]float64, spanTimes)
}{
	wlSolveCold: {runSolveCold, solveColdSpans},
	wlChurn:     {runChurn, churnSpans},
	wlTMEcho:    {runTMEcho, tmEchoSpans},
	wlFaultLoop: {runFaultLoop, faultLoopSpans},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       bool
	smoke    bool
	outDir   string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 7, "run seed: derives every input that is not part of the fixed problem instance")
	fs.IntVar(&o.seconds, "seconds", 30, "length of a workload's timed phase; every size derives from it")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced pass (per-layer metrics and a Chrome trace); 0: the end-to-end pass")
	fs.BoolVar(&o.aa, "aa", false, "run the end-to-end pass twice and compare the two against each metric's bound, then once more on seed 11")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, in this process: checks that the benchmark still runs, measures nothing")
	fs.StringVar(&o.outDir, "out", defaultOutDir(), "directory for result files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.seconds < 1 || o.seconds > 60 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be 1..60 and -trace 0 or 1")
		return 2
	}
	switch {
	case o.smoke:
		return runSmoke(o, stdout, stderr)
	case o.workload != "":
		return runOne(o, stdout, stderr)
	case o.aa:
		return runAA(o, stdout, stderr)
	default:
		return runAll(o, stdout, stderr)
	}
}

// defaultOutDir is bench/results from the root of a checkout, results
// from inside bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "results")
	}
	return "results"
}

// execute runs one workload in this process and returns its result.
func execute(o options, sz sizing) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	traced := o.trace == 1
	rc := &runCtx{seed: o.seed, seconds: o.seconds, trace: traced, sz: sz,
		t: newTracing(traced, o.seed, o.workload), res: newResult(o.workload, traced)}
	res := rc.res
	before := markProc()
	start := time.Now()
	if err := wl.run(rc); err != nil {
		return res, err
	}
	res.WallSec = time.Since(start).Seconds()
	if res.Attempted < 1 {
		return res, fmt.Errorf("workload attempted no operation")
	}
	res.Named["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Named["peak_rss_mb"] = peakRSSMB()
	res.E2E["peak_rss_mb"] = res.Named["peak_rss_mb"]

	if traced {
		pd := before.until(markProc())
		res.Layer["proc.cpu_util"] = pd.cpuUtil
		res.Layer["proc.gc_pause_ms"] = pd.gcPauseMs
		res.Layer["proc.heap_inuse_mb"] = heapInuseMB()
		st, path, err := rc.t.finish(o.outDir, o.workload)
		if err != nil {
			res.violate("trace: %v", err)
		}
		res.TraceFile = path
		wl.spans(res.Layer, st)
		for _, d := range perLayer { // a layer this workload does not exercise reads 0
			if _, ok := res.Layer[d.Name]; !ok {
				res.Layer[d.Name] = 0
			}
		}
	}
	return res, nil
}

// runOne is the mode a driver uses: one workload, in this process,
// with the contract's one-line JSON object last on standard output.
func runOne(o options, stdout, stderr io.Writer) int {
	sz := sizeFor(o.seconds, false)
	res, err := execute(o, sz)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	printResult(stdout, res)
	if err := writeResultFile(o, sz, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := printDriverLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func resultPath(outDir string, traced bool, workload string) string {
	pass := "e2e"
	if traced {
		pass = "traced"
	}
	return filepath.Join(outDir, pass+"-"+workload+".json")
}

func writeResultFile(o options, sz sizing, res *result) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	p := provenance{
		Meta: benchmeta.Collect(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Sizing: sz, Network: loopbackNote, Result: res,
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(o.outDir, res.Traced, res.Workload), append(b, '\n'), 0o644)
}

// driverLine is the contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, res *result) error {
	defs, vals := endToEnd, res.E2E
	if res.Traced {
		defs, vals = perLayer, res.Layer
	}
	line := driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("%s did not produce %s", res.Workload, d.Name)
		}
		line.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printResult is the human-readable report of one run.
func printResult(w io.Writer, res *result) {
	pass := "end-to-end pass (tracing off)"
	if res.Traced {
		pass = "traced pass"
	}
	fmt.Fprintf(w, "== %s: %s, %.1f s wall ==\n", res.Workload, pass, res.WallSec)
	fmt.Fprintf(w, "   %s\n", loopbackNote)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	fmt.Fprintf(w, "   operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, d := range named {
		v, ok := res.Named[d.Name]
		if !ok {
			continue
		}
		n := ""
		if c, ok := res.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "   %-22s %14.4f %-7s %s better%s\n", d.Name, v, d.Unit, d.Better, n)
	}
	if !res.Traced {
		fmt.Fprintln(w, "   bounded slots:")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "   %-22s %14.4f %-7s bound %2.0f %%  = %s\n", d.Name, res.E2E[d.Name], d.Unit, 100*d.Bound, slotMeaning[d.Name][res.Workload])
		}
	} else {
		printLayerTable(w, res)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
}

// layerShares lists, per workload, the per-layer rows that are stages
// of an end-to-end operation, with the named metric they are a share of.
var layerShares = map[string]map[string]string{
	wlSolveCold: {"core.new_ms": "solve_s", "core.execute_ms": "solve_s", "core.compute_ms": "solve_s"},
	wlChurn: {"tenant.step_ms": "tick_p50_ms", "tenant.analysis_ms": "tick_p50_ms", "core.sync_noop_ms": "tick_p50_ms",
		"core.sync_repair_ms": "tick_p50_ms", "core.sync_full_ms": "tick_p50_ms",
		"netsim.catchment_update_ms": "tick_p50_ms", "obs.history_sample_us": "tick_p50_ms"},
	wlTMEcho: {"tm.edge_send_ns": "echo_rtt_p50_us", "tm.cpu_us_per_rt": "echo_rtt_p50_us",
		"tmproto.append_data_ns": "echo_rtt_p50_us", "tmproto.decode_ns": "echo_rtt_p50_us", "tmproto.append_gre_ns": "echo_rtt_p50_us"},
	wlFaultLoop: {"tm.detect_ms": "failover_ms", "tm.switch_ms": "failover_ms", "tm.first_echo_ms": "failover_ms",
		"loop.apply_event_us": "loop_ms", "loop.sync_ms": "loop_ms", "loop.bgp_install_ms": "loop_ms",
		"loop.push_ms": "loop_ms", "loop.resolve_ms": "loop_ms"},
}

// inMs converts a time in unit to milliseconds.
var inMs = map[string]float64{"s": 1e3, "ms": 1, "us": 1e-3, "ns": 1e-6}

// printLayerTable prints the non-zero per-layer rows; a row that is a
// stage of an end-to-end operation also as its share of that operation.
func printLayerTable(w io.Writer, res *result) {
	fmt.Fprintln(w, "   per-layer:")
	unitOf := map[string]string{}
	for _, d := range named {
		unitOf[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		v := res.Layer[d.Name]
		base, staged := layerShares[res.Workload][d.Name]
		if v == 0 && !staged {
			continue
		}
		share := ""
		if b := res.Named[base] * inMs[unitOf[base]]; staged && b > 0 {
			share = fmt.Sprintf("%6.1f %% of %s", 100*v*inMs[d.Unit]/b, base)
		}
		fmt.Fprintf(w, "   %-30s %14.4f %-7s %s\n", d.Name, v, d.Unit, share)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "   trace: %s (validated with span.ParseChrome)\n", res.TraceFile)
	}
}

// child runs one workload in a child process of this same binary, so
// that peak memory does not leak between workloads, and reads back the
// result file it wrote.
func child(o options, workload string, trace int, seed int64, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace), "-out", o.outDir)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(resultPath(o.outDir, trace == 1, workload))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	var p provenance
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, err
	}
	if p.Result == nil {
		return nil, fmt.Errorf("%s: result file has no result", workload)
	}
	r := p.Result
	if runErr != nil && r.correct() {
		return r, fmt.Errorf("%s: %w", workload, runErr)
	}
	return r, nil
}

// runAll runs every workload, end-to-end pass first and, with -trace 1,
// the traced pass after it, then prints the summary.
func runAll(o options, stdout, stderr io.Writer) int {
	code := 0
	var e2e []*result
	for _, wl := range workloadNames {
		res, err := child(o, wl, 0, o.seed, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.correct() {
			code = 1
		}
		e2e = append(e2e, res)
		if o.trace == 1 {
			tr, err := child(o, wl, 1, o.seed, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if !tr.correct() {
				code = 1
			}
		}
	}
	printSummary(stdout, e2e)
	return code
}

// printSummary prints every named end-to-end metric by workload.
func printSummary(w io.Writer, rs []*result) {
	fmt.Fprintf(w, "\n== end-to-end metrics (tracing off; %s) ==\n", loopbackNote)
	fmt.Fprintf(w, "%-22s %-7s", "metric", "unit")
	for _, r := range rs {
		fmt.Fprintf(w, " %14s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, d := range named {
		shown := false
		for _, r := range rs {
			if _, ok := r.Named[d.Name]; ok {
				shown = true
			}
		}
		if !shown {
			continue
		}
		fmt.Fprintf(w, "%-22s %-7s", d.Name, d.Unit)
		for _, r := range rs {
			if v, ok := r.Named[d.Name]; ok {
				fmt.Fprintf(w, " %14.4f", v)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-22s %-7s", "operations (failed)", "count")
	for _, r := range rs {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%d (%d)", r.Attempted, r.Failed))
	}
	fmt.Fprintln(w)
}

// runAA runs the end-to-end pass twice on the same binary and seed and
// holds each bounded slot to its bound, then checks that a second seed
// completes without a failed operation.
func runAA(o options, stdout, stderr io.Writer) int {
	quiet := io.Discard
	var passes [2][]*result
	for i := range passes {
		for _, wl := range workloadNames {
			fmt.Fprintf(stdout, "A/A pass %d: %s\n", i+1, wl)
			res, err := child(o, wl, 0, o.seed, quiet, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			passes[i] = append(passes[i], res)
		}
	}
	code := 0
	fmt.Fprintf(stdout, "\n%-12s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "pass 1", "pass 2", "gap", "bound", "")
	for wi, wl := range workloadNames {
		a, b := passes[0][wi], passes[1][wi]
		for _, d := range endToEnd {
			va, vb := a.E2E[d.Name], b.E2E[d.Name]
			gap := 0.0
			if va != 0 {
				gap = (vb - va) / va
			}
			worse := gap
			if d.Better == "higher" {
				worse = -gap
			}
			verdict := "PASS"
			if worse > d.Bound {
				verdict = "FAIL"
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-14s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wl, d.Name, va, vb, 100*gap, 100*d.Bound, verdict)
		}
		if !a.correct() || !b.correct() {
			fmt.Fprintf(stdout, "%-12s failed operations: %d and %d  FAIL\n", wl, a.Failed, b.Failed)
			code = 1
		}
	}
	const secondSeed = 11
	for _, wl := range workloadNames {
		res, err := child(o, wl, 0, secondSeed, quiet, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: seed %d: %v\n", secondSeed, err)
			return 1
		}
		verdict := "PASS"
		if !res.correct() {
			verdict = "FAIL"
			code = 1
		}
		fmt.Fprintf(stdout, "%-12s seed %d: %d attempted, %d failed  %s\n", wl, secondSeed, res.Attempted, res.Failed, verdict)
	}
	return code
}

// runSmoke runs the traced pass of every workload at tiny sizes in this
// process. The traced pass runs everything the end-to-end pass does and
// the layer probes besides, so this one mode covers both.
func runSmoke(o options, stdout, stderr io.Writer) int {
	sz := sizeFor(o.seconds, true)
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	code := 0
	for _, wl := range names {
		so := o
		so.workload, so.trace = wl, 1
		res, err := execute(so, sz)
		if err != nil {
			fmt.Fprintf(stderr, "bench: smoke %s: %v\n", wl, err)
			return 1
		}
		printResult(stdout, res)
		if err := writeResultFile(so, sz, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.correct() {
			code = 1
		}
	}
	return code
}
