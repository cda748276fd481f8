package alert

import (
	"fmt"
	"strings"
)

// Validate checks a rule is well-formed: names and series are single
// tokens, each kind has the fields it needs, and counts are not
// negative.
func (r Rule) Validate() error {
	if r.Name == "" || strings.ContainsAny(r.Name, " \t\n") {
		return fmt.Errorf("rule name %q must be a non-empty token", r.Name)
	}
	if r.Series == "" || strings.ContainsAny(r.Series, " \t\n") {
		return fmt.Errorf("rule %q: series %q must be a non-empty token", r.Name, r.Series)
	}
	switch r.Kind {
	case KindThreshold:
	case KindAbsence:
		if r.Gate == "" {
			return fmt.Errorf("rule %q: absence needs gate=", r.Name)
		}
		if strings.ContainsAny(r.Gate, " \t\n") {
			return fmt.Errorf("rule %q: gate %q must be a token", r.Name, r.Gate)
		}
	case KindEWMA:
		if r.Band <= 0 {
			return fmt.Errorf("rule %q: ewma needs band > 0", r.Name)
		}
		if r.Alpha < 0 || r.Alpha > 1 {
			return fmt.Errorf("rule %q: alpha must be in [0,1]", r.Name)
		}
	default:
		return fmt.Errorf("rule %q: unknown kind %q", r.Name, r.Kind)
	}
	if r.Window < 0 || r.For < 0 || r.MinSamples < 0 {
		return fmt.Errorf("rule %q: window/for/min_samples must be >= 0", r.Name)
	}
	for k, v := range r.Labels {
		if k == "" || strings.ContainsAny(k, " \t\n=") || strings.ContainsAny(v, " \t\n") {
			return fmt.Errorf("rule %q: label %q=%q must be tokens", r.Name, k, v)
		}
	}
	return nil
}
