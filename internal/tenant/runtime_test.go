package tenant

import (
	"errors"
	"io"
	"log/slog"
	"testing"
	"time"

	"painter/internal/bgp"
	"painter/internal/netsim"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestFailedInstancePlaceholder(t *testing.T) {
	st := Stored{ID: "broken", Spec: validSpec(), Generation: 3}
	in := failedInstance(st, discardLogger(), errors.New("build exploded"))
	s := in.status()
	if s.Phase != PhaseFailed || s.Generation != 3 || s.Error == "" {
		t.Errorf("status = %+v", s)
	}
	if _, err := in.step(true); err == nil {
		t.Error("step of failed instance should error")
	}
	done := make(chan struct{})
	go func() { in.close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("close of failed instance blocked")
	}
	if in.config().Prefixes != nil {
		t.Error("failed instance has a config")
	}
	if got := in.registries(); len(got) != 0 {
		t.Errorf("failed instance exposes %d registries", len(got))
	}
}

// A bad schedule event fails the tenant mid-run: the phase flips to
// Failed, the error surfaces in status, and further steps refuse.
func TestInstanceFailsOnBadEvent(t *testing.T) {
	st := Stored{ID: "acme", Spec: pausedSpec(7, 1, 5), Generation: 1}
	st.Spec.Normalize()
	in, err := buildInstance(st, discardLogger(), nil)
	if err != nil {
		t.Fatal(err)
	}
	go in.loop()
	defer in.close()
	in.byTick[0] = []netsim.Event{{Kind: netsim.EventPeeringDown, Ingress: bgp.IngressID(1 << 30)}}
	if _, err := in.step(true); err == nil {
		t.Fatal("bad event did not fail the step")
	}
	s := in.status()
	if s.Phase != PhaseFailed || s.Error == "" {
		t.Errorf("status after bad event = %+v", s)
	}
	if _, err := in.step(true); err == nil {
		t.Error("failed tenant accepted another step")
	}
}

func TestManagerReportsAndStatuses(t *testing.T) {
	m := quietManager(t)
	for _, id := range []string{"acme", "beta"} {
		if _, err := m.Apply(id, pausedSpec(7, 1, 5), 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Reconcile()
	for i := 0; i < 3; i++ {
		if _, err := m.Step("acme"); err != nil {
			t.Fatal(err)
		}
	}
	reps, ok := m.Reports("acme")
	if !ok || len(reps) != 3 {
		t.Fatalf("reports = %v, %v", reps, ok)
	}
	for i, r := range reps {
		if r.Tick != i {
			t.Errorf("report %d has tick %d", i, r.Tick)
		}
	}
	if _, ok := m.Reports("nope"); ok {
		t.Error("reports for unknown tenant")
	}
	sts := m.Statuses()
	if len(sts) != 2 || sts[0].ID != "acme" || sts[1].ID != "beta" {
		t.Errorf("statuses = %+v", sts)
	}
	if (&ConflictError{ID: "x", Expected: 1, Current: 2}).Error() == "" {
		t.Error("empty conflict error string")
	}
}
