package tm

import (
	"testing"
	"time"

	"painter/internal/tmproto"
)

// PreferPoP and AvoidPoP are custom policies the tests plug into an
// edge; production runs LowestRTT.

// PreferPoP pins the selection to a specific PoP whenever any of its
// destinations is alive, falling back to the lowest-RTT alternative
// otherwise — the "route this service through the compliance region"
// sort of policy an enterprise might configure.
type PreferPoP struct {
	PoP      uint32
	Fallback SelectionPolicy
}

// Select implements SelectionPolicy.
func (p PreferPoP) Select(candidates []DestinationStatus, incumbent int) int {
	for i, c := range candidates {
		if c.Dest.PoP == p.PoP {
			return i
		}
	}
	fb := p.Fallback
	if fb == nil {
		fb = LowestRTT{}
	}
	return fb.Select(candidates, incumbent)
}

// AvoidPoP steers away from a PoP unless it is the only alive option —
// e.g. drain a site before maintenance.
type AvoidPoP struct {
	PoP      uint32
	Fallback SelectionPolicy
}

// Select implements SelectionPolicy.
func (p AvoidPoP) Select(candidates []DestinationStatus, incumbent int) int {
	var filtered []DestinationStatus
	idx := make([]int, 0, len(candidates))
	for i, c := range candidates {
		if c.Dest.PoP != p.PoP {
			filtered = append(filtered, c)
			idx = append(idx, i)
		}
	}
	if len(filtered) == 0 {
		// Only the avoided PoP remains: better than nothing.
		fb := p.Fallback
		if fb == nil {
			fb = LowestRTT{}
		}
		return fb.Select(candidates, incumbent)
	}
	// Map the incumbent into the filtered view.
	fIncumbent := -1
	for j, i := range idx {
		if i == incumbent {
			fIncumbent = j
		}
	}
	fb := p.Fallback
	if fb == nil {
		fb = LowestRTT{}
	}
	sel := fb.Select(filtered, fIncumbent)
	if sel < 0 {
		return -1
	}
	return idx[sel]
}

func statuses(rtts map[uint32]time.Duration, selected uint32) []DestinationStatus {
	// Build sorted-by-RTT candidates as the edge does.
	var out []DestinationStatus
	for pop, rtt := range rtts {
		out = append(out, DestinationStatus{
			Dest: tmproto.Destination{PoP: pop}, Alive: true, RTT: rtt,
			Selected: pop == selected,
		})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].RTT < out[j-1].RTT; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func incumbentOf(cands []DestinationStatus) int {
	for i, c := range cands {
		if c.Selected {
			return i
		}
	}
	return -1
}

func TestLowestRTTHysteresis(t *testing.T) {
	p := LowestRTT{HysteresisMs: 5}
	// Incumbent PoP 2 at 20ms; challenger PoP 1 at 17ms: within
	// hysteresis, keep.
	c := statuses(map[uint32]time.Duration{1: 17 * time.Millisecond, 2: 20 * time.Millisecond}, 2)
	if got := p.Select(c, incumbentOf(c)); c[got].Dest.PoP != 2 {
		t.Errorf("hysteresis should keep incumbent, got PoP %d", c[got].Dest.PoP)
	}
	// Challenger at 10ms: beats hysteresis, switch.
	c = statuses(map[uint32]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond}, 2)
	if got := p.Select(c, incumbentOf(c)); c[got].Dest.PoP != 1 {
		t.Errorf("clear winner should be selected, got PoP %d", c[got].Dest.PoP)
	}
	// No incumbent: pick best.
	c = statuses(map[uint32]time.Duration{1: 10 * time.Millisecond, 2: 8 * time.Millisecond}, 99)
	if got := p.Select(c, -1); c[got].Dest.PoP != 2 {
		t.Errorf("no incumbent: want best, got PoP %d", c[got].Dest.PoP)
	}
	if p.Select(nil, -1) != -1 {
		t.Error("empty candidates should return -1")
	}
}

func TestPreferPoPPolicy(t *testing.T) {
	p := PreferPoP{PoP: 7}
	c := statuses(map[uint32]time.Duration{1: 5 * time.Millisecond, 7: 50 * time.Millisecond}, 1)
	if got := p.Select(c, incumbentOf(c)); c[got].Dest.PoP != 7 {
		t.Errorf("PreferPoP should pick PoP 7 despite higher RTT, got %d", c[got].Dest.PoP)
	}
	// PoP 7 absent: fall back to lowest RTT.
	c = statuses(map[uint32]time.Duration{1: 5 * time.Millisecond, 2: 9 * time.Millisecond}, 0)
	if got := p.Select(c, -1); c[got].Dest.PoP != 1 {
		t.Errorf("fallback should pick lowest RTT, got PoP %d", c[got].Dest.PoP)
	}
}

func TestAvoidPoPPolicy(t *testing.T) {
	p := AvoidPoP{PoP: 1}
	c := statuses(map[uint32]time.Duration{1: 5 * time.Millisecond, 2: 50 * time.Millisecond}, 1)
	if got := p.Select(c, incumbentOf(c)); c[got].Dest.PoP != 2 {
		t.Errorf("AvoidPoP should skip PoP 1, got %d", c[got].Dest.PoP)
	}
	// Only the avoided PoP alive: use it anyway.
	c = statuses(map[uint32]time.Duration{1: 5 * time.Millisecond}, 0)
	if got := p.Select(c, -1); c[got].Dest.PoP != 1 {
		t.Errorf("sole survivor must be used, got %d", c[got].Dest.PoP)
	}
}

// TestEdgeWithPreferPoPPolicy wires a custom policy into a live edge:
// the edge must steer to the preferred PoP even though it is slower,
// and fall back when it dies.
func TestEdgeWithPreferPoPPolicy(t *testing.T) {
	r := newRigCfg(t, 5*time.Millisecond, 25*time.Millisecond, nil, func(c *EdgeConfig) {
		c.Policy = PreferPoP{PoP: 2}
	})
	// Despite PoP 1 being 5x faster, policy pins to PoP 2.
	r.waitSelected(t, 2, 3*time.Second)
	// PoP 2 dies: fall back to PoP 1.
	r.linkB.SetDown(true)
	r.waitSelected(t, 1, 3*time.Second)
	// PoP 2 returns: policy reclaims it.
	r.linkB.SetDown(false)
	r.waitSelected(t, 2, 3*time.Second)
}
