// Package tenant is PAINTER's multi-tenant control plane: the pivot
// from "one world per process" to "N reconciled worlds per process".
// The cloud-provider deployment story (§6) is steering ingress for many
// enterprise customers at once; tenants are the natural horizontal
// sharding unit for that. The package follows the operator pattern —
// a declarative, versioned Spec validated webhook-style on submission,
// a generation-numbered Store holding desired state, and a Manager
// whose reconcile loop diffs desired vs. actual and converges each
// tenant: building a world + continuous controller + fault schedule on
// add, applying mutable changes (budget, tick, pause) in place, and
// rebuilding or tearing down when the immutable identity changes or
// the spec disappears.
package tenant

import (
	"fmt"
	"regexp"
	"strings"

	"painter/internal/chaos"
	"painter/internal/experiments"
)

// SpecVersion is the only spec schema version this build understands.
const SpecVersion = "v1"

// ChaosSpec selects the tenant's fault schedule: a named profile, the
// schedule seed, and the schedule length in ticks (0 = the profile's
// default length).
type ChaosSpec struct {
	// Profile is one of "none", "default", "calm", "storm". Empty means
	// "none": a tenant with no churn at all.
	Profile string `json:"profile,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Ticks   int    `json:"ticks,omitempty"`
}

// Spec is the declarative desired state of one tenant. Scale, Seed, and
// Chaos are the tenant's identity: changing them forces a world rebuild
// on the next reconcile. Budget, TickMs, and Paused are mutable in
// place — the reconcile loop applies them to the running tenant without
// touching its world or controller state.
type Spec struct {
	// Version is the spec schema version; empty defaults to SpecVersion.
	Version string `json:"version,omitempty"`
	// Scale names the world preset: "small", "peering", or "azure".
	Scale string `json:"scale"`
	// Seed is the world seed (topology, deployment, simulator, UGs all
	// derive from it exactly as experiments.BuildWorld derives them).
	Seed int64 `json:"seed"`
	// Budget is the advertisement prefix budget; 0 auto-sizes to 10% of
	// the tenant's peerings (minimum 5), the painterd -continuous rule.
	Budget int `json:"budget,omitempty"`
	// TickMs is the tenant's sync cadence in milliseconds: every tick
	// the runtime applies the next schedule slot and runs one
	// controller Sync. Must be >= 1.
	TickMs int `json:"tick_ms"`
	// Chaos selects the fault schedule.
	Chaos ChaosSpec `json:"chaos,omitempty"`
	// Paused stops the tick loop without tearing anything down; manual
	// Step still works, and flipping it back resumes where it left off.
	Paused bool `json:"paused,omitempty"`
}

// FieldError is one field-level validation failure.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

// ValidationError aggregates every field failure of one spec — the
// webhook-style reject-on-submit payload.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

func (e *ValidationError) Error() string {
	var b strings.Builder
	b.WriteString("invalid tenant spec: ")
	for i, f := range e.Fields {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", f.Field, f.Msg)
	}
	return b.String()
}

// chaosProfiles maps profile names to schedule-shape constructors.
// "none" is handled separately (no schedule at all).
var chaosProfiles = map[string]func(seed int64) chaos.GenConfig{
	"default": chaos.DefaultGenConfig,
	// calm: latency spikes, probe loss, and preference flips only — a
	// tenant whose routes never actually fail.
	"calm": func(seed int64) chaos.GenConfig {
		gc := chaos.DefaultGenConfig(seed)
		gc.PeeringFailProb, gc.PoPOutageProb, gc.StormProb = 0, 0, 0
		return gc
	},
	// storm: withdrawal storms and failures dominate — the route-churn
	// burst workload.
	"storm": func(seed int64) chaos.GenConfig {
		gc := chaos.DefaultGenConfig(seed)
		gc.StormProb, gc.StormSize = 0.25, 6
		gc.PeeringFailProb = 0.45
		return gc
	},
}

// chaosProfileNames returns the sorted accepted profile names.
func chaosProfileNames() []string {
	return []string{"calm", "default", "none", "storm"}
}

// idPattern bounds tenant IDs so they are safe as metric label values,
// URL path segments, and log fields.
var idPattern = regexp.MustCompile(`^[a-z0-9]([a-z0-9-]{0,62})$`)

// validateID checks a tenant ID: DNS-label shaped, 1-63 chars.
func validateID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("tenant: invalid id %q (want lowercase alphanumerics and dashes, 1-63 chars, leading alphanumeric)", id)
	}
	return nil
}

// normalize fills defaulted fields (version, chaos profile) in place.
// Validate calls it; callers only need it when diffing specs.
func (s *Spec) normalize() {
	if s.Version == "" {
		s.Version = SpecVersion
	}
	if s.Chaos.Profile == "" {
		s.Chaos.Profile = "none"
	}
}

// Validate normalizes the spec and checks every field, returning a
// *ValidationError carrying one entry per bad field (nil when the spec
// is acceptable). This is the single admission gate: the store only
// ever holds specs that passed it.
func (s *Spec) Validate() error {
	s.normalize()
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	if s.Version != SpecVersion {
		add("version", "unsupported spec version %q (want %q)", s.Version, SpecVersion)
	}
	if s.Scale == "" {
		add("scale", "required: one of small, peering, azure")
	} else if _, err := experiments.ParseScale(s.Scale); err != nil {
		add("scale", "unknown scale preset %q (want small, peering, or azure)", s.Scale)
	}
	if s.TickMs <= 0 {
		add("tick_ms", "must be >= 1, got %d", s.TickMs)
	}
	if s.Budget < 0 {
		add("budget", "must be >= 0 (0 auto-sizes), got %d", s.Budget)
	}
	if s.Chaos.Profile != "none" {
		if _, ok := chaosProfiles[s.Chaos.Profile]; !ok {
			add("chaos.profile", "unknown profile %q (want one of %s)",
				s.Chaos.Profile, strings.Join(chaosProfileNames(), ", "))
		}
	}
	if s.Chaos.Ticks < 0 {
		add("chaos.ticks", "must be >= 0 (0 uses the profile default), got %d", s.Chaos.Ticks)
	}
	if len(fields) == 0 {
		return nil
	}
	return &ValidationError{Fields: fields}
}

// needsRebuild reports whether moving from old to new requires tearing
// the tenant's world down and rebuilding (an identity field changed),
// as opposed to the in-place mutable set (budget, tick, pause).
func needsRebuild(old, new Spec) bool {
	old.normalize()
	new.normalize()
	return old.Scale != new.Scale || old.Seed != new.Seed || old.Chaos != new.Chaos
}
