package tm

import (
	"testing"
	"time"

	"painter/internal/tmproto"
)

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
	// Incumbent PoP 2 at 20ms; challenger PoP 1 at 18ms: within the
	// 2 ms hysteresis, keep.
	c := statuses(map[uint32]time.Duration{1: 18 * time.Millisecond, 2: 20 * time.Millisecond}, 2)
	if got := selectLowestRTT(c, incumbentOf(c)); c[got].Dest.PoP != 2 {
		t.Errorf("hysteresis should keep incumbent, got PoP %d", c[got].Dest.PoP)
	}
	// Challenger at 17.9ms: beats hysteresis, switch.
	c = statuses(map[uint32]time.Duration{1: 17900 * time.Microsecond, 2: 20 * time.Millisecond}, 2)
	if got := selectLowestRTT(c, incumbentOf(c)); c[got].Dest.PoP != 1 {
		t.Errorf("clear winner should be selected, got PoP %d", c[got].Dest.PoP)
	}
	// No incumbent: pick best.
	c = statuses(map[uint32]time.Duration{1: 10 * time.Millisecond, 2: 8 * time.Millisecond}, 99)
	if got := selectLowestRTT(c, -1); c[got].Dest.PoP != 2 {
		t.Errorf("no incumbent: want best, got PoP %d", c[got].Dest.PoP)
	}
	if selectLowestRTT(nil, -1) != -1 {
		t.Error("empty candidates should return -1")
	}
}
