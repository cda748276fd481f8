package tenant

import (
	"bytes"
	"encoding/binary"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"painter/internal/chaos"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/obs"
)

// quietManager builds a Manager with a long background interval so
// tests fully control reconcile timing via Reconcile().
func quietManager(t *testing.T) *Manager {
	t.Helper()
	m := NewManager(Params{ReconcileInterval: time.Hour})
	t.Cleanup(m.Close)
	return m
}

// pausedSpec is a deterministic, manually-driven tenant: paused (no
// timer steps mutate anything) with a short default-profile schedule.
func pausedSpec(seed, chaosSeed int64, ticks int) Spec {
	return Spec{
		Scale: "small", Seed: seed, TickMs: 1, Paused: true,
		Chaos: ChaosSpec{Profile: "default", Seed: chaosSeed, Ticks: ticks},
	}
}

func configBytes(cfg core.Config) []byte {
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

// driveToCompletion manually steps a tenant through its whole schedule
// (plus the final-evaluation tick) and returns the final status.
func driveToCompletion(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	st, ok := m.Status(id)
	if !ok {
		t.Fatalf("tenant %q has no runtime", id)
	}
	for i := 0; i < st.ScheduleTicks+2; i++ {
		if _, err := m.Step(id); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	st, _ = m.Status(id)
	if !st.ScheduleDone || st.FinalBenefitMs == 0 {
		t.Fatalf("schedule did not complete: %+v", st)
	}
	return st
}

func TestManagerLifecycle(t *testing.T) {
	m := quietManager(t)
	if _, err := m.Apply("acme", pausedSpec(7, 1, 10), 0); err != nil {
		t.Fatal(err)
	}
	m.Reconcile()
	st, ok := m.Status("acme")
	if !ok {
		t.Fatal("no runtime after reconcile")
	}
	if st.Phase != PhasePaused || st.Generation != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.Budget < 5 {
		t.Errorf("auto budget = %d, want >= 5", st.Budget)
	}
	if st.Prefixes == 0 {
		t.Error("initial solve produced no prefixes")
	}
	if st.ScheduleTicks == 0 {
		t.Error("default chaos profile should generate a schedule")
	}

	// Remove: runtime torn down on the next reconcile.
	if !m.Remove("acme") {
		t.Error("Remove of stored tenant = false")
	}
	m.Reconcile()
	if _, ok := m.Status("acme"); ok {
		t.Error("runtime survived removal")
	}
}

func TestManagerUpdateWhilePaused(t *testing.T) {
	m := quietManager(t)
	spec := pausedSpec(7, 1, 10)
	st1, err := m.Apply("acme", spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Reconcile()
	for i := 0; i < 3; i++ {
		if _, err := m.Step("acme"); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := m.Status("acme")

	// Bump the budget while paused: applied in place, same runtime.
	spec.Budget = before.Budget + 2
	st2, err := m.Apply("acme", spec, st1.Generation)
	if err != nil {
		t.Fatal(err)
	}
	m.Reconcile()
	after, ok := m.Status("acme")
	if !ok {
		t.Fatal("runtime gone after in-place update")
	}
	if after.Generation != st2.Generation {
		t.Errorf("observed generation %d, want %d", after.Generation, st2.Generation)
	}
	if after.Phase != PhasePaused {
		t.Errorf("phase = %s, want Paused", after.Phase)
	}
	if after.Budget != spec.Budget {
		t.Errorf("budget = %d, want %d", after.Budget, spec.Budget)
	}
	// A rebuild would have reset the sync counters.
	if after.Syncs != before.Syncs || after.EventsApplied != before.EventsApplied {
		t.Errorf("in-place update reset progress: before %+v after %+v", before, after)
	}
	// And the tenant still steps from where it left off.
	if _, err := m.Step("acme"); err != nil {
		t.Fatal(err)
	}
}

func TestManagerRebuildOnIdentityChange(t *testing.T) {
	m := quietManager(t)
	spec := pausedSpec(7, 1, 10)
	if _, err := m.Apply("acme", spec, 0); err != nil {
		t.Fatal(err)
	}
	m.Reconcile()
	for i := 0; i < 3; i++ {
		if _, err := m.Step("acme"); err != nil {
			t.Fatal(err)
		}
	}
	spec.Seed = 8
	st, err := m.Apply("acme", spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Reconcile()
	after, ok := m.Status("acme")
	if !ok {
		t.Fatal("runtime gone after rebuild")
	}
	if after.Generation != st.Generation {
		t.Errorf("generation = %d, want %d", after.Generation, st.Generation)
	}
	if after.Syncs != 0 || after.ScheduleTick != 0 {
		t.Errorf("identity change should rebuild from scratch: %+v", after)
	}
}

func TestManagerDeleteNeverStarted(t *testing.T) {
	m := quietManager(t)
	// Write the desired state without kicking the reconcile loop: the
	// runtime is never built.
	if _, err := m.Store().Put("ghost", pausedSpec(7, 1, 5), 0); err != nil {
		t.Fatal(err)
	}
	if !m.Remove("ghost") {
		t.Error("Remove of never-started tenant = false")
	}
	m.Reconcile()
	if _, ok := m.Status("ghost"); ok {
		t.Error("runtime exists for never-started tenant")
	}
	if m.Remove("ghost") {
		t.Error("second Remove = true")
	}
	if _, err := m.Step("ghost"); err == nil {
		t.Error("Step of unknown tenant should error")
	}
}

// TestManagerDeterminism runs the same two specs in two managers,
// driving each tenant manually, and asserts the per-step config byte
// streams and final numbers match exactly.
func TestManagerDeterminism(t *testing.T) {
	run := func() (streams map[string][]byte, finals map[string]Status) {
		m := NewManager(Params{ReconcileInterval: time.Hour})
		defer m.Close()
		specs := map[string]Spec{
			"acme": pausedSpec(7, 1, 10),
			"beta": pausedSpec(11, 5, 10),
		}
		for id, sp := range specs {
			if _, err := m.Apply(id, sp, 0); err != nil {
				t.Fatal(err)
			}
		}
		m.Reconcile()
		streams = map[string][]byte{}
		finals = map[string]Status{}
		for id := range specs {
			st, _ := m.Status(id)
			for i := 0; i < st.ScheduleTicks+2; i++ {
				if _, err := m.Step(id); err != nil {
					t.Fatal(err)
				}
				cfg, _ := m.Config(id)
				streams[id] = append(streams[id], configBytes(cfg)...)
			}
			finals[id], _ = m.Status(id)
		}
		return streams, finals
	}
	s1, f1 := run()
	s2, f2 := run()
	for id := range s1 {
		if !bytes.Equal(s1[id], s2[id]) {
			t.Errorf("tenant %s: same-spec runs diverged", id)
		}
		a, b := f1[id], f2[id]
		if a.FinalBenefitMs != b.FinalBenefitMs || a.EventsApplied != b.EventsApplied ||
			a.Syncs != b.Syncs || a.Prefixes != b.Prefixes {
			t.Errorf("tenant %s: final status diverged: %+v vs %+v", id, a, b)
		}
	}
	// Different seeds must actually produce different tenants.
	if bytes.Equal(s1["acme"], s1["beta"]) {
		t.Error("different seeds produced identical config streams")
	}
}

// TestTenantConvergesToColdSolve is the twin-rig differential from the
// acceptance criteria: two tenants with different seeds and chaos run
// in one manager; each must converge within 1% of a cold full solve on
// an identically-built, identically-churned standalone world.
func TestTenantConvergesToColdSolve(t *testing.T) {
	m := quietManager(t)
	specs := map[string]Spec{
		"acme": pausedSpec(7, 20230815, 15),
		"beta": pausedSpec(11, 424242, 15),
	}
	for id, sp := range specs {
		if _, err := m.Apply(id, sp, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Reconcile()
	for id, sp := range specs {
		st := driveToCompletion(t, m, id)
		want := coldSolveBenefit(t, sp)
		if st.FinalBenefitMs < 0.99*want-1e-9 {
			t.Errorf("tenant %s: benefit %.3f below 99%%%% of cold solve %.3f",
				id, st.FinalBenefitMs, want)
		}
	}
}

// coldSolveBenefit builds the tenant's twin world from the spec alone
// (same seed derivations), replays the same schedule, cold-solves, and
// returns the ground-truth benefit.
func coldSolveBenefit(t *testing.T, spec Spec) float64 {
	t.Helper()
	spec.normalize()
	sc, err := experiments.ParseScale(spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := experiments.BuildWorld(sc, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	g, d, w, ugs := wd.Graph, wd.Deploy, wd.Net, wd.UGs
	gc := chaosProfiles[spec.Chaos.Profile](spec.Chaos.Seed)
	if spec.Chaos.Ticks > 0 {
		gc.Ticks = spec.Chaos.Ticks
	}
	sched, err := chaos.Generate(g, d, gc)
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range sched {
		if err := w.ApplyEvent(se.Ev); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh controller's initial config is the cold solve over the
	// world's current inputs and live peerings.
	coldCtrl, err := core.NewController(w, ugs, core.ControllerParams{Solver: core.DefaultParams(resolveBudget(spec, d))})
	if err != nil {
		t.Fatal(err)
	}
	coldCtrl.Stop()
	cold := coldCtrl.Config()
	ev, err := core.Evaluate(w, ugs, cold)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Benefit
}

// TestManagerNoGoroutineLeak adds and removes tenants under load and
// asserts the process returns to its baseline goroutine count.
func TestManagerNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := NewManager(Params{ReconcileInterval: 10 * time.Millisecond})
	for _, id := range []string{"a1", "a2", "a3"} {
		spec := Spec{
			Scale: "small", Seed: 7, TickMs: 2,
			Chaos: ChaosSpec{Profile: "default", Seed: 3, Ticks: 30},
		}
		if _, err := m.Apply(id, spec, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Reconcile()
	// Load: manual steps racing the tick loops, then a removal mid-run.
	for i := 0; i < 10; i++ {
		for _, id := range []string{"a1", "a2", "a3"} {
			_, _ = m.Step(id)
		}
	}
	m.Remove("a2")
	m.Reconcile()
	if _, ok := m.Status("a2"); ok {
		t.Error("a2 survived removal")
	}
	for i := 0; i < 5; i++ {
		_, _ = m.Step("a1")
	}
	m.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:n])
}

// TestManagerRegistriesLabeled asserts every tenant registry carries
// the tenant base label and appears/disappears with the tenant.
func TestManagerRegistriesLabeled(t *testing.T) {
	m := quietManager(t)
	if _, err := m.Apply("acme", pausedSpec(7, 1, 5), 0); err != nil {
		t.Fatal(err)
	}
	m.Reconcile()
	regs := m.Registries()
	// The tenant's controller and world registries.
	if len(regs) != 2 {
		t.Fatalf("got %d registries, want 2", len(regs))
	}
	// Every series of each registry's exposition carries the tenant.
	for i, r := range regs {
		rec := httptest.NewRecorder()
		obs.DynamicHandler(func() []*obs.Registry { return []*obs.Registry{r} }).
			ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		samples := 0
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			samples++
			if !strings.Contains(line, `tenant="acme"`) {
				t.Errorf("registry %d: series without the tenant label: %s", i, line)
			}
		}
		if samples == 0 {
			t.Errorf("registry %d exposes no series", i)
		}
	}
	m.Remove("acme")
	m.Reconcile()
	if got := len(m.Registries()); got != 0 {
		t.Errorf("registries after removal = %d, want 0", got)
	}
}
