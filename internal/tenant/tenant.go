package tenant

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"sync"
	"time"

	"painter/internal/chaos"
	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/netsim"
	"painter/internal/obs"
	"painter/internal/obs/alert"
	"painter/internal/obs/history"
	"painter/internal/obs/span"
	"painter/internal/usergroup"
)

// Phase is the reconcile state of one tenant runtime.
type Phase string

// Phases. A tenant is Running or Paused in steady state, Failed when
// its world build or tick loop errored (it stays down until its spec
// changes), and Terminating only transiently during teardown.
const (
	PhaseRunning     Phase = "Running"
	PhasePaused      Phase = "Paused"
	PhaseFailed      Phase = "Failed"
	PhaseTerminating Phase = "Terminating"
)

// Status is the observed state of one tenant, the /tenants/{id}/status
// payload.
type Status struct {
	ID         string `json:"id"`
	Generation int64  `json:"generation"`
	Phase      Phase  `json:"phase"`
	Error      string `json:"error,omitempty"`
	Spec       Spec   `json:"spec"`
	// Budget is the resolved prefix budget (spec budget or the
	// auto-sized value when the spec says 0).
	Budget int `json:"budget"`
	// ScheduleTick is the next fault-schedule slot to apply;
	// ScheduleTicks is the total slot count (0 for chaos profile
	// "none"); ScheduleDone reports the schedule fully replayed.
	ScheduleTick  int  `json:"schedule_tick"`
	ScheduleTicks int  `json:"schedule_ticks"`
	ScheduleDone  bool `json:"schedule_done"`

	EventsApplied uint64 `json:"events_applied"`
	Syncs         uint64 `json:"syncs"`
	Repairs       uint64 `json:"repairs"`
	FullSolves    uint64 `json:"full_solves"`
	Noops         uint64 `json:"noops"`

	LastOutcome string `json:"last_outcome,omitempty"`
	Prefixes    int    `json:"prefixes"`
	// FinalBenefitMs is the ground-truth benefit evaluated once, right
	// after the schedule's final recovery converged.
	FinalBenefitMs float64 `json:"final_benefit_ms,omitempty"`
}

// SyncRecord is one tick's outcome, kept in a bounded per-tenant ring
// (the /tenants/{id}/reports payload).
type SyncRecord struct {
	Tick           int     `json:"tick"`
	Events         int     `json:"events"`
	Outcome        string  `json:"outcome"`
	Dirty          int     `json:"dirty"`
	DirtyFraction  float64 `json:"dirty_fraction"`
	AnycastChanged int     `json:"anycast_changed"`
	Prefixes       int     `json:"prefixes"`
	DurationMs     float64 `json:"duration_ms"`
}

// reportRing bounds the per-tenant sync history.
const reportRing = 128

// instance is one reconciled tenant runtime: a private world churned by
// the tenant's fault schedule, a continuous controller syncing every
// tick, and the tenant-labeled observability handles. All mutable state
// is guarded by mu; the tick loop, manual Step, in-place updates, and
// status reads all serialize on it, which is what makes the
// netsim contract (no ApplyEvent concurrent with queries) hold.
type instance struct {
	id string

	mu       sync.Mutex
	spec     Spec
	gen      int64
	phase    Phase
	runErr   error
	stopOnce sync.Once

	deploy *cloud.Deployment
	world  *netsim.World
	ugs    *usergroup.Set
	ctrl   *core.Controller
	budget int
	logger *slog.Logger

	byTick  map[int][]netsim.Event
	maxTick int // -1 when the tenant has no fault schedule
	tick    int

	reg *obs.Registry

	// Analysis tier: per-tick history sampling over the tenant's
	// registries, the anycast catchment feeding the per-PoP
	// share gauges, and the alert engine judging the three built-in
	// detectors. All deterministic: the history clock is tick-derived,
	// and Eval runs on the same serialized cadence as Sync.
	hist   *history.Store
	alerts *alert.Engine
	catch  *netsim.CatchmentAnalyzer
	catchG *netsim.CatchmentGauges

	eventsApplied uint64
	syncs         uint64
	repairs       uint64
	fullSolves    uint64
	noops         uint64
	lastOutcome   string
	prefixes      int
	finalBenefit  float64
	finalDone     bool
	reports       []SyncRecord

	stop     chan struct{}
	loopDone chan struct{}
}

// tenantSeed derives a per-tenant tracer seed from the ID and world
// seed — deterministic, and distinct across tenants so derived ID
// streams do not collide.
func tenantSeed(id string, seed int64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15
}

// resolveBudget applies the painterd -continuous auto-sizing rule: an
// explicit budget wins; otherwise 10% of the tenant's peerings, at
// least 5, at most all of them.
func resolveBudget(spec Spec, d *cloud.Deployment) int {
	if spec.Budget > 0 {
		return spec.Budget
	}
	n := len(d.AllPeeringIDs())
	b := n / 10
	if b < 5 {
		b = 5
	}
	if b > n && n > 0 {
		b = n
	}
	return b
}

// buildInstance constructs a tenant runtime from its stored spec: the
// world and user groups (experiments.BuildWorld, which painterd's
// environment is built on too, so a tenant is bit-for-bit the
// single-world environment of the same scale and seed), the continuous
// controller with tenant-scoped metrics and tracing, and the generated
// fault schedule. It does not start the tick loop — the Manager does,
// after registering the instance.
func buildInstance(st Stored, logger *slog.Logger, parent *span.Tracer) (*instance, error) {
	spec := st.Spec
	spec.normalize()
	sc, err := experiments.ParseScale(spec.Scale)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", st.ID, err)
	}
	wd, err := experiments.BuildWorld(sc, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", st.ID, err)
	}
	g, d, w, ugs := wd.Graph, wd.Deploy, wd.Net, wd.UGs

	// Tenant-scoped observability: the world's registry and a fresh
	// controller registry both expose every metric with tenant="<id>";
	// the derived tracer stamps every span the same way into the
	// process-wide flight recorder.
	w.Obs().SetBaseLabels(obs.L("tenant", st.ID))
	reg := obs.NewRegistry()
	reg.SetBaseLabels(obs.L("tenant", st.ID))
	tracer := parent.Derive(tenantSeed(st.ID, spec.Seed), span.A("tenant", st.ID))

	budget := resolveBudget(spec, d)
	params := core.DefaultParams(budget)
	params.Obs = reg
	params.Trace = tracer
	ctrl, err := core.NewController(w, ugs, core.ControllerParams{Solver: params})
	if err != nil {
		return nil, fmt.Errorf("tenant %q: controller: %w", st.ID, err)
	}

	// The analysis tier: a ring-buffer history over both registries with
	// a tick-derived clock (wall time never leaks into the series, so
	// same-seed tenants produce byte-identical history), the incremental
	// catchment analyzer publishing per-PoP shares into the world
	// registry, and the alert engine running the built-in detectors with
	// tenant-labeled states mirrored into the structured log.
	hist := history.New(history.Config{
		Clock: history.TickClock(0, int64(spec.TickMs)*int64(time.Millisecond)),
		Regs:  func() []*obs.Registry { return []*obs.Registry{reg, w.Obs()} },
	})
	rules := alert.CatchmentDriftRules(0, 8, 1)
	rules = append(rules, alert.ConvergenceSLORules(0, 0, 8, 2)...)
	eng := alert.NewEngine(hist, rules, alert.Options{
		Labels: map[string]string{"tenant": st.ID},
		Logger: logger,
		Tracer: tracer,
	})

	in := &instance{
		id:       st.ID,
		spec:     spec,
		gen:      st.Generation,
		phase:    PhaseRunning,
		deploy:   d,
		world:    w,
		ugs:      ugs,
		ctrl:     ctrl,
		budget:   budget,
		logger:   logger,
		byTick:   map[int][]netsim.Event{},
		maxTick:  -1,
		reg:      reg,
		hist:     hist,
		alerts:   eng,
		catch:    netsim.NewCatchmentAnalyzer(w, ugs, 0),
		catchG:   netsim.NewCatchmentGauges(w.Obs(), d),
		prefixes: len(ctrl.Config().Prefixes),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if spec.Paused {
		in.phase = PhasePaused
	}
	if mk, ok := chaosProfiles[spec.Chaos.Profile]; ok {
		gc := mk(spec.Chaos.Seed)
		if spec.Chaos.Ticks > 0 {
			gc.Ticks = spec.Chaos.Ticks
		}
		sched, err := chaos.Generate(g, d, gc)
		if err != nil {
			ctrl.Stop()
			return nil, fmt.Errorf("tenant %q: schedule: %w", st.ID, err)
		}
		for _, se := range sched {
			in.byTick[se.Tick] = append(in.byTick[se.Tick], se.Ev)
			if se.Tick > in.maxTick {
				in.maxTick = se.Tick
			}
		}
	}
	return in, nil
}

// failedInstance records a build failure as a tenant in PhaseFailed so
// status surfaces the error; its channels are pre-closed so teardown
// never blocks on a loop that was never started.
func failedInstance(st Stored, logger *slog.Logger, err error) *instance {
	in := &instance{
		id:       st.ID,
		spec:     st.Spec,
		gen:      st.Generation,
		phase:    PhaseFailed,
		runErr:   err,
		logger:   logger,
		maxTick:  -1,
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	close(in.loopDone)
	in.stopOnce.Do(func() { close(in.stop) })
	return in
}

// loop is the tenant's tick goroutine: every TickMs it applies the next
// schedule slot and runs one controller Sync. The interval is re-read
// each round, so in-place tick changes take effect on the next tick.
func (in *instance) loop() {
	defer close(in.loopDone)
	for {
		in.mu.Lock()
		d := time.Duration(in.spec.TickMs) * time.Millisecond
		in.mu.Unlock()
		timer := time.NewTimer(d)
		select {
		case <-in.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		if _, err := in.step(false); err != nil {
			in.logger.Error("tenant tick failed", "tenant", in.id, "err", err)
			return
		}
	}
}

// step advances the tenant one tick. Paused tenants skip timer-driven
// steps but still accept manual ones (the deterministic drive used by
// tests and the bench). An error marks the tenant Failed.
func (in *instance) step(manual bool) (core.SyncReport, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	switch in.phase {
	case PhaseFailed:
		return core.SyncReport{}, fmt.Errorf("tenant %q: failed: %w", in.id, in.runErr)
	case PhaseTerminating:
		return core.SyncReport{}, fmt.Errorf("tenant %q: terminating", in.id)
	case PhasePaused:
		if !manual {
			return core.SyncReport{}, nil
		}
	}
	return in.stepLocked()
}

func (in *instance) stepLocked() (core.SyncReport, error) {
	t := in.tick
	if in.maxTick >= 0 && t <= in.maxTick {
		for _, ev := range in.byTick[t] {
			if err := in.world.ApplyEvent(ev); err != nil {
				in.failLocked(fmt.Errorf("tick %d: apply %s: %w", t, ev.String(), err))
				return core.SyncReport{}, in.runErr
			}
			in.eventsApplied++
		}
	}
	in.tick++

	start := time.Now()
	cfg, rep, err := in.ctrl.Sync()
	if err != nil {
		in.failLocked(fmt.Errorf("tick %d: sync: %w", t, err))
		return rep, in.runErr
	}
	elapsed := time.Since(start)

	in.syncs++
	outcome := "idle"
	switch {
	case rep.FullSolve:
		outcome = "full-solve"
	case rep.Repaired:
		outcome = "repair"
	case rep.Events > 0:
		outcome = "noop"
		in.noops++
	}
	if rep.FullSolve {
		in.fullSolves++
	}
	if rep.Repaired {
		in.repairs++
	}
	in.lastOutcome = outcome
	in.prefixes = len(cfg.Prefixes)
	in.reports = append(in.reports, SyncRecord{
		Tick: t, Events: rep.Events, Outcome: outcome,
		Dirty: len(rep.Dirty), DirtyFraction: rep.DirtyFraction,
		AnycastChanged: rep.AnycastChanged, Prefixes: len(cfg.Prefixes),
		DurationMs: float64(elapsed.Nanoseconds()) / 1e6,
	})
	if len(in.reports) > reportRing {
		in.reports = in.reports[len(in.reports)-reportRing:]
	}

	// Analysis tier, on the same serialized cadence as Sync (the netsim
	// contract — no queries racing ApplyEvent — holds under mu): compute
	// the catchment, publish the per-PoP shares, take one
	// history sample of both registries, and judge the detectors.
	if in.catch != nil {
		if share, cerr := in.catch.Update(); cerr == nil {
			in.catchG.Set(share)
		}
		// A world with no anycast routes at all (every PoP down) has no
		// catchment; gauges hold their last values until routes return.
	}
	in.alerts.Eval(in.hist.Sample())

	// One tick past the schedule's final recovery, flush the converged
	// ground truth once: the per-tenant quality headline.
	if in.maxTick >= 0 && in.tick == in.maxTick+1 && !in.finalDone {
		ev, err := core.Evaluate(in.world, in.ugs, in.ctrl.Config())
		if err != nil {
			in.failLocked(fmt.Errorf("final evaluation: %w", err))
			return rep, in.runErr
		}
		in.finalBenefit = ev.Benefit
		in.finalDone = true
		in.logger.Info("tenant schedule complete", "tenant", in.id,
			"benefit_ms", fmt.Sprintf("%.3f", ev.Benefit),
			"events", in.eventsApplied, "prefixes", in.prefixes)
	}
	return rep, nil
}

// failLocked transitions to PhaseFailed (mu held).
func (in *instance) failLocked(err error) {
	in.phase = PhaseFailed
	in.runErr = fmt.Errorf("tenant %q: %w", in.id, err)
}

// applyInPlace applies a spec update that does not require a rebuild:
// budget, tick interval, and pause state, bumping the observed
// generation.
func (in *instance) applyInPlace(st Stored) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	spec := st.Spec
	spec.normalize()
	in.spec, in.gen = spec, st.Generation
	switch in.phase {
	case PhaseRunning, PhasePaused:
		if spec.Paused {
			in.phase = PhasePaused
		} else {
			in.phase = PhaseRunning
		}
	}
	if in.ctrl == nil {
		return nil
	}
	nb := resolveBudget(spec, in.deploy)
	if nb != in.budget {
		cfg, err := in.ctrl.SetBudget(nb)
		if err != nil {
			return err
		}
		in.budget = nb
		in.prefixes = len(cfg.Prefixes)
	}
	return nil
}

// close stops the tick loop (draining any in-flight Sync: the loop
// goroutine finishes its current step before exiting) and unsubscribes
// the controller from the world. Idempotent.
func (in *instance) close() {
	in.stopOnce.Do(func() { close(in.stop) })
	<-in.loopDone
	in.mu.Lock()
	in.phase = PhaseTerminating
	ctrl := in.ctrl
	in.mu.Unlock()
	if ctrl != nil {
		ctrl.Stop()
	}
	// Teardown must not leak firing alerts into /alerts: force-resolve
	// everything on one final tick.
	in.alerts.ResolveAll(in.hist.Tick() + 1)
}

// status snapshots the tenant's observed state.
func (in *instance) status() Status {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := Status{
		ID: in.id, Generation: in.gen, Phase: in.phase,
		Spec: in.spec, Budget: in.budget,
		ScheduleTick: in.tick, ScheduleTicks: in.maxTick + 1,
		ScheduleDone:  in.maxTick < 0 || in.tick > in.maxTick,
		EventsApplied: in.eventsApplied, Syncs: in.syncs,
		Repairs: in.repairs, FullSolves: in.fullSolves, Noops: in.noops,
		LastOutcome: in.lastOutcome, Prefixes: in.prefixes,
	}
	if in.finalDone {
		st.FinalBenefitMs = in.finalBenefit
	}
	if in.runErr != nil {
		st.Error = in.runErr.Error()
	}
	return st
}

// syncReports returns a copy of the bounded sync history.
func (in *instance) syncReports() []SyncRecord {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]SyncRecord, len(in.reports))
	copy(out, in.reports)
	return out
}

// config returns a copy of the tenant's current advertisement config
// (empty for a failed tenant).
func (in *instance) config() core.Config {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.ctrl == nil {
		return core.Config{}
	}
	return in.ctrl.Config()
}

// alertStates returns the tenant's current alert instances (nil for
// failed builds).
func (in *instance) alertStates() []alert.StateView { return in.alerts.States() }

// alertStream returns a copy of the tenant's bounded transition stream.
func (in *instance) alertStream() []alert.Transition {
	return in.alerts.Result().Transitions
}

// history returns the tenant's time-series store (nil for failed
// builds).
func (in *instance) history() *history.Store { return in.hist }

// registries returns the tenant's exposition registries (controller
// first, then the world's), skipping nil for failed builds.
func (in *instance) registries() []*obs.Registry {
	var out []*obs.Registry
	if in.reg != nil {
		out = append(out, in.reg)
	}
	if in.world != nil {
		out = append(out, in.world.Obs())
	}
	return out
}
