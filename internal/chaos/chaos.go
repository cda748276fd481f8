// Package chaos is a deterministic, seeded fault-injection engine for
// the PAINTER simulator and Traffic Manager: it generates scripted or
// randomized event schedules (peering failures and recoveries,
// withdrawal storms, PoP outages, latency spikes, probe loss, and
// hidden-preference flips), drives them through netsim's
// ApplyEvent/Subscribe hook layer, and returns the final route table,
// so tests can assert (recording the timeline through the world's
// Subscribe) that equal seeds produce identical failure histories and
// final route tables.
//
// The paper's core resilience claim (§6, Fig. 12/15) is that PAINTER
// reroutes around ingress failures at RTT timescales; catchment work
// (Sermpezis & Kotronis) shows the hard part is that route selection
// shifts unpredictably when announcements change. This package exists
// to exercise exactly that: correctness of cache invalidation, route
// selection, and failover under change rather than in steady state.
package chaos

import (
	"fmt"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/netsim"
)

// TickFunc runs after all of tick t's events have been applied. Errors
// abort the run.
type TickFunc func(tick int, w *netsim.World) error

// Run applies a schedule to a world tick by tick, invoking onTick (may
// be nil) after each tick's events, and returns the final route table
// over all peerings (shared with the world's resolve cache: read-only).
// The schedule is applied in (tick, insertion) order; Run does not
// mutate it. A caller that wants the timeline subscribes to the world.
func Run(w *netsim.World, d *cloud.Deployment, sched Schedule, onTick TickFunc) (*bgp.Result, error) {
	ordered := make(Schedule, len(sched))
	copy(ordered, sched)
	ordered.sortStable()

	maxTick := 0
	if len(ordered) > 0 {
		maxTick = ordered[len(ordered)-1].Tick
	}
	i := 0
	for t := 0; t <= maxTick; t++ {
		for i < len(ordered) && ordered[i].Tick == t {
			if err := w.ApplyEvent(ordered[i].Ev); err != nil {
				return nil, fmt.Errorf("chaos: tick %d: %w", t, err)
			}
			i++
		}
		if onTick != nil {
			if err := onTick(t, w); err != nil {
				return nil, err
			}
		}
	}
	return w.ResolveIngress(d.AllPeeringIDs())
}
