package chaos

import (
	"fmt"
	"sort"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/netsim"
	"painter/internal/topology"
)

// rng is a self-contained splitmix64 generator: fully deterministic
// across runs, platforms, and Go releases (unlike math/rand's default
// source, whose stream is only promised per major version).
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed) ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// ScheduledEvent is one world event pinned to a schedule tick.
type ScheduledEvent struct {
	Tick int
	Ev   netsim.Event
}

// Schedule is an ordered fault script: the engine applies all events of
// tick t before invoking the per-tick hook for t.
type Schedule []ScheduledEvent

// Kinds returns the set of distinct event kinds in the schedule.
func (s Schedule) Kinds() map[netsim.EventKind]int {
	out := make(map[netsim.EventKind]int)
	for _, se := range s {
		out[se.Ev.Kind]++
	}
	return out
}

// sortStable orders the schedule by tick, preserving within-tick
// insertion order (generation order is part of the deterministic
// contract).
func (s Schedule) sortStable() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].Tick < s[j].Tick })
}

// GenConfig tunes randomized schedule generation. All probabilities are
// per tick.
type GenConfig struct {
	Seed  int64
	Ticks int

	// PeeringFailProb fails one random live peering; it recovers after
	// 1..maxOutageTicks ticks.
	PeeringFailProb float64
	// PoPOutageProb fails one random healthy PoP (all its peerings).
	PoPOutageProb float64
	// StormProb triggers a withdrawal storm: StormSize live peerings
	// withdrawn at once, all recovering stormTicks later — the
	// route-churn burst steady-state propagation never sees.
	StormProb float64
	StormSize int
}

// The schedule shape every profile shares. Per-tick probabilities.
const (
	// stormTicks is how long storm withdrawals last.
	stormTicks = 3
	// maxOutageTicks bounds how long single-peering and PoP outages last.
	maxOutageTicks = 5
	// spikeProb adds a latency spike (up to spikeMaxMs) on a random
	// ingress, cleared after 1..maxOutageTicks ticks.
	spikeProb  = 0.25
	spikeMaxMs = 150
	// lossProb sets probe loss (up to maxLossPct) on a random ingress,
	// cleared after 1..maxOutageTicks ticks.
	lossProb   = 0.20
	maxLossPct = 40
	// prefFlipProb re-rolls one random (AS, ingress) hidden preference.
	prefFlipProb = 0.35
)

// DefaultGenConfig returns a schedule shape that exercises every event
// kind within a few dozen ticks.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{
		Seed:            seed,
		Ticks:           40,
		PeeringFailProb: 0.30,
		PoPOutageProb:   0.10,
		StormProb:       0.08,
		StormSize:       4,
	}
}

// Generate builds a randomized but fully deterministic fault schedule
// against a deployment: equal (topology, deployment, config) inputs
// produce byte-identical schedules. Generated events are consistent —
// only live peerings fail, only failed ones recover — so the schedule
// can be replayed against any world built over the same deployment.
// Recoveries for everything still failed (or spiked/lossy) after the
// last tick are appended, so schedules end healthy.
func Generate(g *topology.Graph, d *cloud.Deployment, cfg GenConfig) (Schedule, error) {
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("chaos: Ticks must be positive, got %d", cfg.Ticks)
	}
	if cfg.StormSize <= 0 {
		cfg.StormSize = 3
	}
	r := newRNG(cfg.Seed)
	all := d.AllPeeringIDs()
	asns := g.ASNs()
	if len(all) == 0 {
		return nil, fmt.Errorf("chaos: deployment has no peerings")
	}

	// Generation-time mirror of the overlay, so events stay consistent.
	downPeering := make(map[bgp.IngressID]bool)
	downPoP := make(map[cloud.PoPID]bool)
	spiked := make(map[bgp.IngressID]bool)
	lossy := make(map[bgp.IngressID]bool)
	// future[t] holds recovery events scheduled for tick t.
	future := make(map[int][]netsim.Event)

	var sched Schedule
	emit := func(t int, ev netsim.Event) {
		sched = append(sched, ScheduledEvent{Tick: t, Ev: ev})
	}
	livePeerings := func() []bgp.IngressID {
		out := make([]bgp.IngressID, 0, len(all))
		for _, id := range all {
			pr := d.Peering(id)
			if !downPeering[id] && !downPoP[pr.PoP] {
				out = append(out, id)
			}
		}
		return out
	}
	applyMirror := func(ev netsim.Event) {
		switch ev.Kind {
		case netsim.EventPeeringDown:
			downPeering[ev.Ingress] = true
		case netsim.EventPeeringUp:
			delete(downPeering, ev.Ingress)
		case netsim.EventPoPDown:
			downPoP[ev.PoP] = true
		case netsim.EventPoPUp:
			delete(downPoP, ev.PoP)
		case netsim.EventLatencySpike:
			if ev.Ms > 0 {
				spiked[ev.Ingress] = true
			} else {
				delete(spiked, ev.Ingress)
			}
		case netsim.EventProbeLoss:
			if ev.Pct > 0 {
				lossy[ev.Ingress] = true
			} else {
				delete(lossy, ev.Ingress)
			}
		}
	}
	schedule := func(t int, ev netsim.Event) {
		emit(t, ev)
		applyMirror(ev)
	}
	outageLen := func() int { return 1 + r.intn(maxOutageTicks) }

	for t := 0; t < cfg.Ticks; t++ {
		// Due recoveries first: a slot freed this tick may fail again.
		for _, ev := range future[t] {
			schedule(t, ev)
		}
		delete(future, t)

		if r.float() < cfg.StormProb {
			live := livePeerings()
			n := cfg.StormSize
			if n > len(live) {
				n = len(live)
			}
			for i := 0; i < n; i++ {
				id := live[r.intn(len(live))]
				if downPeering[id] {
					continue
				}
				schedule(t, netsim.Event{Kind: netsim.EventPeeringDown, Ingress: id})
				rt := t + stormTicks
				future[rt] = append(future[rt], netsim.Event{Kind: netsim.EventPeeringUp, Ingress: id})
			}
		}
		if r.float() < cfg.PeeringFailProb {
			if live := livePeerings(); len(live) > 1 {
				id := live[r.intn(len(live))]
				schedule(t, netsim.Event{Kind: netsim.EventPeeringDown, Ingress: id})
				rt := t + outageLen()
				future[rt] = append(future[rt], netsim.Event{Kind: netsim.EventPeeringUp, Ingress: id})
			}
		}
		if r.float() < cfg.PoPOutageProb {
			var healthy []cloud.PoPID
			for _, p := range d.PoPs {
				if !downPoP[p.ID] {
					healthy = append(healthy, p.ID)
				}
			}
			// Keep at least two PoPs alive so the cloud never fully
			// vanishes mid-schedule.
			if len(healthy) > 2 {
				pop := healthy[r.intn(len(healthy))]
				schedule(t, netsim.Event{Kind: netsim.EventPoPDown, PoP: pop})
				rt := t + outageLen()
				future[rt] = append(future[rt], netsim.Event{Kind: netsim.EventPoPUp, PoP: pop})
			}
		}
		if r.float() < spikeProb {
			id := all[r.intn(len(all))]
			if !spiked[id] {
				ms := 20 + r.float()*spikeMaxMs
				schedule(t, netsim.Event{Kind: netsim.EventLatencySpike, Ingress: id, Ms: ms})
				rt := t + outageLen()
				future[rt] = append(future[rt], netsim.Event{Kind: netsim.EventLatencySpike, Ingress: id, Ms: 0})
			}
		}
		if r.float() < lossProb {
			id := all[r.intn(len(all))]
			if !lossy[id] {
				pct := 1 + r.intn(maxLossPct)
				schedule(t, netsim.Event{Kind: netsim.EventProbeLoss, Ingress: id, Pct: pct})
				rt := t + outageLen()
				future[rt] = append(future[rt], netsim.Event{Kind: netsim.EventProbeLoss, Ingress: id, Pct: 0})
			}
		}
		if r.float() < prefFlipProb {
			as := asns[r.intn(len(asns))]
			id := all[r.intn(len(all))]
			schedule(t, netsim.Event{Kind: netsim.EventPrefFlip, AS: as, Ingress: id})
		}
	}

	// Drain recoveries scheduled past the horizon, in tick order.
	var tail []int
	for t := range future {
		tail = append(tail, t)
	}
	sort.Ints(tail)
	last := cfg.Ticks - 1
	for _, t := range tail {
		at := t
		if at > last+1 {
			at = last + 1
		}
		for _, ev := range future[t] {
			schedule(at, ev)
		}
	}
	for _, id := range all {
		if downPeering[id] {
			schedule(last+1, netsim.Event{Kind: netsim.EventPeeringUp, Ingress: id})
		}
	}
	for _, p := range d.PoPs {
		if downPoP[p.ID] {
			schedule(last+1, netsim.Event{Kind: netsim.EventPoPUp, PoP: p.ID})
		}
	}

	sched.sortStable()
	return sched, nil
}
