package tenant

import (
	"strings"
	"testing"
)

// validSpec is the smallest acceptable spec.
func validSpec() Spec {
	return Spec{Scale: "small", Seed: 7, TickMs: 10}
}

func fieldsOf(t *testing.T, err error) map[string]string {
	t.Helper()
	verr, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	out := map[string]string{}
	for _, f := range verr.Fields {
		out[f.Field] = f.Msg
	}
	return out
}

func TestSpecValidateAccepts(t *testing.T) {
	cases := []Spec{
		validSpec(),
		{Version: "v1", Scale: "peering", Seed: -3, TickMs: 1},
		{Scale: "azure", TickMs: 2000, Budget: 40,
			Chaos: ChaosSpec{Profile: "storm", Seed: 9, Ticks: 50}},
		{Scale: "small", TickMs: 5, Chaos: ChaosSpec{Profile: "calm"}, Paused: true},
		{Scale: "small", TickMs: 5, Chaos: ChaosSpec{Profile: "none"}},
	}
	for i, s := range cases {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: valid spec rejected: %v", i, err)
		}
		if s.Version != SpecVersion {
			t.Errorf("case %d: Validate did not normalize version: %q", i, s.Version)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Spec)
		field string
	}{
		{"unknown scale", func(s *Spec) { s.Scale = "galactic" }, "scale"},
		{"empty scale", func(s *Spec) { s.Scale = "" }, "scale"},
		{"zero tick", func(s *Spec) { s.TickMs = 0 }, "tick_ms"},
		{"negative tick", func(s *Spec) { s.TickMs = -5 }, "tick_ms"},
		{"negative budget", func(s *Spec) { s.Budget = -1 }, "budget"},
		{"bad version", func(s *Spec) { s.Version = "v2" }, "version"},
		{"unknown chaos profile", func(s *Spec) { s.Chaos.Profile = "volcano" }, "chaos.profile"},
		{"negative chaos ticks", func(s *Spec) { s.Chaos.Ticks = -1 }, "chaos.ticks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("spec accepted")
			}
			fields := fieldsOf(t, err)
			if _, ok := fields[tc.field]; !ok {
				t.Errorf("no error on field %q; got %v", tc.field, fields)
			}
		})
	}
}

func TestSpecValidateAggregatesFields(t *testing.T) {
	s := Spec{Scale: "nope", TickMs: 0, Budget: -2, Chaos: ChaosSpec{Profile: "bad", Ticks: -1}}
	err := s.Validate()
	if err == nil {
		t.Fatal("spec accepted")
	}
	fields := fieldsOf(t, err)
	for _, want := range []string{"scale", "tick_ms", "budget", "chaos.profile", "chaos.ticks"} {
		if _, ok := fields[want]; !ok {
			t.Errorf("missing field error %q in %v", want, fields)
		}
	}
	if !strings.Contains(err.Error(), "tick_ms") {
		t.Errorf("Error() should name fields: %q", err.Error())
	}
}

func TestValidateID(t *testing.T) {
	for _, id := range []string{"a", "bootstrap", "acme-prod-2", "0x"} {
		if err := validateID(id); err != nil {
			t.Errorf("id %q rejected: %v", id, err)
		}
	}
	long := strings.Repeat("a", 64)
	for _, id := range []string{"", "-lead", "UPPER", "has space", "dot.dot", long} {
		if err := validateID(id); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
}

func TestNeedsRebuild(t *testing.T) {
	base := validSpec()
	mutable := base
	mutable.Budget = 99
	mutable.TickMs = 500
	mutable.Paused = true
	if needsRebuild(base, mutable) {
		t.Error("budget/tick/pause change should not need a rebuild")
	}
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.Scale = "peering" },
		func(s *Spec) { s.Seed = 8 },
		func(s *Spec) { s.Chaos.Profile = "storm" },
		func(s *Spec) { s.Chaos.Seed = 1 },
		func(s *Spec) { s.Chaos.Ticks = 30 },
	} {
		next := base
		mut(&next)
		if !needsRebuild(base, next) {
			t.Errorf("identity change %+v should need a rebuild", next)
		}
	}
	// "" and "none" normalize to the same profile.
	a, b := base, base
	b.Chaos.Profile = "none"
	if needsRebuild(a, b) {
		t.Error("empty profile vs none should not need a rebuild")
	}
}
