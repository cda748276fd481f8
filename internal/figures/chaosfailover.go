package figures

// Chaos-failover scenario: drive a seeded fault schedule (peering and
// PoP failures, withdrawal storms, latency spikes, probe loss,
// hidden-preference flips) through the netsim event layer and measure
// how ingress selection and user latency evolve tick by tick — the §6
// resilience story (reroute around failures, recover cleanly) under the
// catchment unpredictability the orchestrator cannot model.

import (
	"fmt"

	"painter/internal/bgp"
	"painter/internal/chaos"
	"painter/internal/experiments"
	"painter/internal/netsim"
)

// chaosTopUGs bounds how many (heaviest) user groups are measured per
// tick.
const chaosTopUGs = 200

// ChaosPoint is one tick of the scenario.
type ChaosPoint struct {
	Tick int
	// Events applied during this tick.
	Events int
	// Live peerings after this tick's events.
	Live int
	// MeanLatencyMs is the weight-averaged latency of the measured UGs
	// through their currently selected ingress.
	MeanLatencyMs float64
	// RerouteFrac is the weight fraction of measured UGs whose selected
	// ingress changed since the previous tick.
	RerouteFrac float64
	// Unreachable is the weight fraction of measured UGs with no route
	// (their entire catchment withdrawn).
	Unreachable float64
}

// ChaosFailoverResult is the full scenario outcome.
type ChaosFailoverResult struct {
	ScheduleLen int
	Kinds       int
	Points      []ChaosPoint
	// Recovered reports whether the final selection equals the
	// pre-chaos selection (schedules end with a final recovery).
	Recovered bool
}

// RunChaosFailover generates a deterministic chaos schedule for the
// environment's deployment and replays it on a fresh world, measuring
// latency and churn per tick. seed drives the schedule generator and
// nothing else: equal seeds reproduce the run exactly.
func RunChaosFailover(env *experiments.Env, seed int64) (*ChaosFailoverResult, error) {
	sched, err := chaos.Generate(env.Graph, env.Deploy, chaos.DefaultGenConfig(seed))
	if err != nil {
		return nil, err
	}

	// A fresh world so the scenario never perturbs env.World's caches.
	w, err := netsim.New(env.Graph, env.Deploy, env.Seed+2)
	if err != nil {
		return nil, err
	}
	all := env.Deploy.AllPeeringIDs()
	ugs := env.UGs.TopByWeight(chaosTopUGs)

	baseline, err := w.ResolveIngress(all)
	if err != nil {
		return nil, err
	}
	// prev is each UG's ingress as of the previous tick.
	prev := make([]bgp.IngressID, len(ugs))
	if err := w.Land(all, ugs, nil, func(i int, ing bgp.IngressID, _ float64) { prev[i] = ing }); err != nil {
		return nil, err
	}

	res := &ChaosFailoverResult{ScheduleLen: len(sched), Kinds: len(sched.Kinds())}
	eventsAt := make(map[int]int)
	for _, se := range sched {
		eventsAt[se.Tick]++
	}

	final, err := chaos.Run(w, env.Deploy, sched, func(tick int, w *netsim.World) error {
		pt := ChaosPoint{Tick: tick, Events: eventsAt[tick], Live: len(w.LiveIngresses(all))}
		var wSum, wLat, wMoved, wDark, latSum float64
		err := w.Land(all, ugs, nil, func(i int, ing bgp.IngressID, l float64) {
			ug := &ugs[i]
			wSum += ug.Weight
			moved := prev[i] != bgp.InvalidIngress && prev[i] != ing
			prev[i] = ing
			if ing == bgp.InvalidIngress {
				wDark += ug.Weight
				return
			}
			wLat += ug.Weight
			latSum += ug.Weight * l
			if moved {
				wMoved += ug.Weight
			}
		})
		if err != nil {
			return fmt.Errorf("figures: chaos tick %d: %w", tick, err)
		}
		if wLat > 0 {
			pt.MeanLatencyMs = latSum / wLat
		}
		if wSum > 0 {
			pt.RerouteFrac = wMoved / wSum
			pt.Unreachable = wDark / wSum
		}
		res.Points = append(res.Points, pt)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Recovered = len(final.Diff(baseline)) == 0
	return res, nil
}

// Table renders the scenario for painter-bench.
func (r *ChaosFailoverResult) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("chaos failover (%d events, %d kinds, recovered=%v)", r.ScheduleLen, r.Kinds, r.Recovered),
		Header: []string{"tick", "events", "live", "meanLatMs", "reroute", "unreachable"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Tick),
			fmt.Sprintf("%d", p.Events),
			fmt.Sprintf("%d", p.Live),
			num(p.MeanLatencyMs),
			pct(p.RerouteFrac),
			pct(p.Unreachable),
		})
	}
	return t
}
