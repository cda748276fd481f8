package alert

import "testing"

func TestDetectorRulesValid(t *testing.T) {
	var all []Rule
	all = append(all, CatchmentDriftRules(0, 0, 1)...)
	all = append(all, ConvergenceSLORules(0, 0, 0, 1)...)
	all = append(all, ProbeBlackoutRule(0, 1))
	for _, r := range all {
		if err := r.Validate(); err != nil {
			t.Errorf("detector rule %q invalid: %v", r.Name, err)
		}
	}
}
