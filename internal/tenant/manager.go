package tenant

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"painter/internal/core"
	"painter/internal/obs"
	"painter/internal/obs/alert"
	"painter/internal/obs/history"
	"painter/internal/obs/span"
)

// finishedRing bounds how many torn-down tenants keep their final alert
// states visible in /alerts.
const finishedRing = 16

// Params tunes a Manager.
type Params struct {
	// Logger receives tenant lifecycle lines; nil means slog.Default().
	Logger *slog.Logger
	// Trace is the parent tracer tenants derive their labeled tracers
	// from (nil disables tracing — everything stays nil-safe).
	Trace *span.Tracer
	// ReconcileInterval is the background reconcile cadence (default
	// 200ms). Writes through Apply/Remove also kick an immediate pass,
	// so the interval only bounds convergence after direct Store edits.
	ReconcileInterval time.Duration
}

// Manager converges actual tenant runtimes to the desired state in its
// Store. One background goroutine runs the reconcile loop; everything
// else (HTTP handlers, tests, the bench) talks to the Manager through
// the thread-safe accessors.
type Manager struct {
	store  *Store
	logger *slog.Logger
	trace  *span.Tracer

	// recMu serializes reconcile passes (the background loop and any
	// direct Reconcile callers), so tenant create/teardown never races
	// with itself.
	recMu sync.Mutex

	mu        sync.Mutex
	instances map[string]*instance
	closed    bool
	// finished retains the final (resolved) alert states of recently
	// torn-down tenants — teardown resolves alerts rather than leaking
	// them, but operators still get to see what had been firing.
	finished []TenantAlerts

	kick     chan struct{}
	stop     chan struct{}
	loopDone chan struct{}
}

// NewManager builds a Manager with an empty store and starts its
// reconcile loop. Callers must Close it.
func NewManager(p Params) *Manager {
	if p.Logger == nil {
		p.Logger = slog.Default()
	}
	if p.ReconcileInterval <= 0 {
		p.ReconcileInterval = 200 * time.Millisecond
	}
	m := &Manager{
		store:     NewStore(),
		logger:    p.Logger,
		trace:     p.Trace,
		instances: make(map[string]*instance),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	go m.loop(p.ReconcileInterval)
	return m
}

// Store exposes the desired-state store (for persistence or direct
// inspection). Writers that bypass Apply/Remove should call Kick.
func (m *Manager) Store() *Store { return m.store }

// Apply validates and stores a spec (see Store.Put for the expect
// semantics) and kicks an immediate reconcile.
func (m *Manager) Apply(id string, spec Spec, expect int64) (Stored, error) {
	st, err := m.store.Put(id, spec, expect)
	if err != nil {
		return Stored{}, err
	}
	m.Kick()
	return st, nil
}

// Remove deletes a tenant's desired state, reporting whether it
// existed, and kicks a reconcile to tear the runtime down.
func (m *Manager) Remove(id string) bool {
	ok := m.store.Delete(id)
	if ok {
		m.Kick()
	}
	return ok
}

// Kick schedules an immediate reconcile pass (coalescing with any
// already pending).
func (m *Manager) Kick() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

func (m *Manager) loop(interval time.Duration) {
	defer close(m.loopDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.kick:
		case <-t.C:
		}
		m.Reconcile()
	}
}

// Reconcile runs one synchronous pass: tear down runtimes whose spec
// vanished, build runtimes for new specs, and converge running tenants
// whose observed generation trails the store — in place when only
// mutable fields changed, by rebuild when the identity (scale, seed,
// chaos) changed or the runtime is Failed. Safe to call concurrently
// with the background loop; passes serialize.
func (m *Manager) Reconcile() {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()

	desired := m.store.List()
	want := make(map[string]Stored, len(desired))
	for _, st := range desired {
		want[st.ID] = st
	}

	// Removals first: free the capacity before building new worlds.
	m.mu.Lock()
	var gone []*instance
	for id, in := range m.instances {
		if _, ok := want[id]; !ok {
			gone = append(gone, in)
			delete(m.instances, id)
		}
	}
	m.mu.Unlock()
	sort.Slice(gone, func(i, j int) bool { return gone[i].id < gone[j].id })
	for _, in := range gone {
		m.teardown(in, "removed")
	}

	for _, st := range desired {
		m.mu.Lock()
		in := m.instances[st.ID]
		m.mu.Unlock()
		if in == nil {
			in = m.create(st)
			m.mu.Lock()
			m.instances[st.ID] = in
			m.mu.Unlock()
			continue
		}
		in.mu.Lock()
		curGen, curSpec, failed := in.gen, in.spec, in.phase == PhaseFailed
		in.mu.Unlock()
		if curGen == st.Generation {
			continue
		}
		if failed || NeedsRebuild(curSpec, st.Spec) {
			m.teardown(in, "rebuild")
			nin := m.create(st)
			m.mu.Lock()
			m.instances[st.ID] = nin
			m.mu.Unlock()
			continue
		}
		if err := in.applyInPlace(st); err != nil {
			m.logger.Error("tenant in-place update failed", "tenant", st.ID, "err", err)
			continue
		}
		m.logger.Info("tenant updated in place", "tenant", st.ID,
			"generation", st.Generation)
	}
}

// create builds a runtime for st and starts its tick loop; a build
// error yields a Failed placeholder so status surfaces the cause.
func (m *Manager) create(st Stored) *instance {
	start := time.Now()
	in, err := buildInstance(st, m.logger, m.trace)
	if err != nil {
		m.logger.Error("tenant build failed", "tenant", st.ID, "err", err)
		return failedInstance(st, m.logger, err)
	}
	m.logger.Info("tenant created", "tenant", st.ID,
		"generation", st.Generation, "scale", in.spec.Scale,
		"seed", in.spec.Seed, "budget", in.budget,
		"chaos", in.spec.Chaos.Profile,
		"schedule_ticks", in.maxTick+1,
		"build_ms", time.Since(start).Milliseconds())
	go in.loop()
	return in
}

// teardown drains and stops one runtime, flushes its final evaluation,
// and logs the one-line per-tenant summary. close() force-resolves the
// tenant's alerts; the final states land in the bounded finished tail.
func (m *Manager) teardown(in *instance, reason string) {
	in.close()
	if states := in.alertStates(); len(states) > 0 {
		m.mu.Lock()
		m.finished = append(m.finished, TenantAlerts{
			Tenant: in.id, States: states, Recent: in.alertStream(),
		})
		if len(m.finished) > finishedRing {
			m.finished = m.finished[len(m.finished)-finishedRing:]
		}
		m.mu.Unlock()
	}
	st := in.status()
	benefit := st.FinalBenefitMs
	if !st.ScheduleDone || benefit == 0 {
		// Schedule still in flight (or no schedule): evaluate the
		// config as it stands so the summary always carries a number.
		if in.world != nil && in.ctrl != nil {
			if ev, err := core.Evaluate(in.world, in.ugs, in.ctrl.Config()); err == nil {
				benefit = ev.Benefit
			}
		}
	}
	m.logger.Info("tenant summary", "tenant", in.id, "reason", reason,
		"phase", string(st.Phase), "generation", st.Generation,
		"syncs", st.Syncs, "events", st.EventsApplied,
		"repairs", st.Repairs, "full_solves", st.FullSolves,
		"prefixes", st.Prefixes,
		"benefit_ms", fmt.Sprintf("%.3f", benefit))
}

// Step advances one tenant a single tick synchronously — the
// deterministic drive for tests and benchmarks. It works on paused
// tenants too and serializes with the tenant's own tick loop.
func (m *Manager) Step(id string) (core.SyncReport, error) {
	m.mu.Lock()
	in := m.instances[id]
	m.mu.Unlock()
	if in == nil {
		return core.SyncReport{}, fmt.Errorf("tenant %q: no runtime (not yet reconciled or unknown)", id)
	}
	return in.step(true)
}

// Status returns one tenant's observed state.
func (m *Manager) Status(id string) (Status, bool) {
	m.mu.Lock()
	in := m.instances[id]
	m.mu.Unlock()
	if in == nil {
		return Status{}, false
	}
	return in.status(), true
}

// Statuses returns every runtime's observed state, sorted by ID.
func (m *Manager) Statuses() []Status {
	m.mu.Lock()
	ins := make([]*instance, 0, len(m.instances))
	for _, in := range m.instances {
		ins = append(ins, in)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(ins))
	for _, in := range ins {
		out = append(out, in.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Reports returns the tenant's bounded sync history.
func (m *Manager) Reports(id string) ([]SyncRecord, bool) {
	m.mu.Lock()
	in := m.instances[id]
	m.mu.Unlock()
	if in == nil {
		return nil, false
	}
	return in.syncReports(), true
}

// Config returns a copy of the tenant's current advertisement config.
func (m *Manager) Config(id string) (core.Config, bool) {
	m.mu.Lock()
	in := m.instances[id]
	m.mu.Unlock()
	if in == nil {
		return core.Config{}, false
	}
	return in.config(), true
}

// Registries returns every exposition registry the manager owns: each
// tenant's (controller registry, then world registry), sorted by
// tenant ID. The control API scrapes this on
// every /metrics request, so tenants appear and disappear from the
// exposition as they are reconciled.
func (m *Manager) Registries() []*obs.Registry {
	m.mu.Lock()
	ins := make([]*instance, 0, len(m.instances))
	for _, in := range m.instances {
		ins = append(ins, in)
	}
	m.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].id < ins[j].id })
	var out []*obs.Registry
	for _, in := range ins {
		out = append(out, in.registries()...)
	}
	return out
}

// TenantAlerts is one tenant's alert view: current instance states plus
// the recent transition stream (the /alerts payload element).
type TenantAlerts struct {
	Tenant string             `json:"tenant"`
	States []alert.StateView  `json:"states"`
	Recent []alert.Transition `json:"recent,omitempty"`
}

// Alerts returns every live tenant's alert states sorted by ID — the
// GET /alerts aggregation.
func (m *Manager) Alerts() []TenantAlerts {
	m.mu.Lock()
	ins := make([]*instance, 0, len(m.instances))
	for _, in := range m.instances {
		ins = append(ins, in)
	}
	m.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].id < ins[j].id })
	out := make([]TenantAlerts, 0, len(ins))
	for _, in := range ins {
		states := in.alertStates()
		if states == nil {
			continue // failed build: no engine
		}
		out = append(out, TenantAlerts{
			Tenant: in.id, States: states, Recent: in.alertStream(),
		})
	}
	return out
}

// FinishedAlerts returns the bounded tail of final alert states from
// torn-down tenants, oldest first.
func (m *Manager) FinishedAlerts() []TenantAlerts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TenantAlerts(nil), m.finished...)
}

// Histories returns every live tenant's time-series store, sorted by
// tenant ID — the /debug/obs/history aggregation.
func (m *Manager) Histories() []*history.Store {
	m.mu.Lock()
	ins := make([]*instance, 0, len(m.instances))
	for _, in := range m.instances {
		ins = append(ins, in)
	}
	m.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].id < ins[j].id })
	out := make([]*history.Store, 0, len(ins))
	for _, in := range ins {
		if h := in.history(); h != nil {
			out = append(out, h)
		}
	}
	return out
}

// Close stops the reconcile loop, then tears down every tenant —
// draining in-flight Syncs, flushing final evaluations, and logging
// one summary line per tenant. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()

	close(m.stop)
	<-m.loopDone

	// The loop is gone; take recMu to drain any direct Reconcile
	// caller, then tear everything down.
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	ins := make([]*instance, 0, len(m.instances))
	for _, in := range m.instances {
		ins = append(ins, in)
	}
	m.instances = make(map[string]*instance)
	m.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].id < ins[j].id })
	for _, in := range ins {
		m.teardown(in, "shutdown")
	}
}
