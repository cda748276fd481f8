package tm

// switchHysteresisMs is the margin by which a challenger must beat the
// selected destination's RTT before new flows switch to it, preventing
// oscillation between near-equal paths (§3.2, [38]).
const switchHysteresisMs = 2

// selectLowestRTT decides which tunnel destination new flows use. The
// edge calls it whenever destination state changes. Candidates are the
// alive destinations with measured RTTs, sorted by ascending RTT (ties
// by address); incumbent is the index of the selected destination
// within them, or -1 when it is dead or absent. It returns the index to
// select: the lowest-RTT candidate, unless the incumbent is within
// switchHysteresisMs of it.
func selectLowestRTT(candidates []DestinationStatus, incumbent int) int {
	if len(candidates) == 0 {
		return -1
	}
	if incumbent >= 0 && incumbent < len(candidates) {
		bestMs := float64(candidates[0].RTT.Microseconds()) / 1000
		curMs := float64(candidates[incumbent].RTT.Microseconds()) / 1000
		if bestMs >= curMs-switchHysteresisMs {
			return incumbent
		}
	}
	return 0
}
