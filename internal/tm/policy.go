package tm

// SelectionPolicy decides which tunnel destination new flows should use
// (§3.2: "the Traffic Manager can use different destination selection
// policies according to enterprise network or service goals"). The edge
// invokes it whenever destination state changes.
//
// Candidates are the currently alive destinations with measured RTTs,
// sorted by ascending RTT (ties by address). incumbent is the index of
// the currently selected destination within candidates, or -1 when the
// current selection is dead or absent. Implementations return the index
// to select; returning the incumbent keeps the selection.
type SelectionPolicy interface {
	Select(candidates []DestinationStatus, incumbent int) int
}

// LowestRTT selects the lowest-RTT destination with hysteresis: the
// incumbent is kept unless a challenger beats it by HysteresisMs,
// preventing oscillation between near-equal paths (§3.2, [38]).
type LowestRTT struct {
	HysteresisMs float64
}

// Select implements SelectionPolicy.
func (p LowestRTT) Select(candidates []DestinationStatus, incumbent int) int {
	if len(candidates) == 0 {
		return -1
	}
	if incumbent >= 0 && incumbent < len(candidates) {
		bestMs := float64(candidates[0].RTT.Microseconds()) / 1000
		curMs := float64(candidates[incumbent].RTT.Microseconds()) / 1000
		if bestMs >= curMs-p.HysteresisMs {
			return incumbent
		}
	}
	return 0
}
