package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"painter/internal/bgp"
	"painter/internal/chaos"
	"painter/internal/netsim"
	"painter/internal/obs/span"
)

// Layer probes: direct calls into netsim's and bgp's public functions
// on a benchmark-owned world, made only in the traced pass. Each call
// sits in its own bench span; probeSpans turns the spans into rows.

// probeResolve resolves every prefix set twice on a world that has
// never seen it: the first call is the cold path, the repeat the warm.
func probeResolve(t *tracing, parent *span.Span, wd *world, sets [][]bgp.IngressID) error {
	for _, set := range sets {
		for _, name := range []string{"netsim.resolve_cold", "netsim.resolve_warm"} {
			sp := t.start(parent, name)
			_, err := wd.w.ResolveIngress(set)
			sp.Finish()
			if err != nil {
				return fmt.Errorf("resolve probe: %w", err)
			}
		}
	}
	return nil
}

// probePropagate runs a full bgp.PropagateResult for every prefix set.
func probePropagate(t *tracing, parent *span.Span, wd *world, sets [][]bgp.IngressID, L map[string]float64) error {
	tb := wd.w.TieBreaker()
	var m0, m1 runtime.MemStats
	var mallocs uint64
	for _, set := range sets {
		inj, err := wd.d.Injections(set)
		if err != nil {
			return fmt.Errorf("propagate probe: %w", err)
		}
		runtime.ReadMemStats(&m0)
		sp := t.start(parent, "bgp.propagate")
		_, err = bgp.PropagateResult(wd.g, inj, tb)
		sp.Finish()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("propagate probe: %w", err)
		}
		mallocs += m1.Mallocs - m0.Mallocs
	}
	L["bgp.propagate_allocs"] = float64(mallocs) / float64(len(sets))
	return nil
}

// probeDelta withdraws one randomly drawn peering from the anycast
// announcement and announces it again, each step a bgp.PropagateDelta
// against the result the previous step retained.
func probeDelta(t *tracing, parent *span.Span, wd *world, seed int64, draws int, L map[string]float64) error {
	tb := wd.w.TieBreaker()
	all := wd.d.AllPeeringIDs()
	full, err := wd.d.Injections(all)
	if err != nil {
		return fmt.Errorf("delta probe: %w", err)
	}
	cur, err := bgp.PropagateResult(wd.g, full, tb)
	if err != nil {
		return fmt.Errorf("delta probe: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	var changed, steps float64
	for i := 0; i < draws; i++ {
		drop := rng.Intn(len(full))
		without := append(append([]bgp.Injection(nil), full[:drop]...), full[drop+1:]...)
		for _, inj := range [][]bgp.Injection{without, full} {
			sp := t.start(parent, "bgp.delta")
			next, ch, err := bgp.PropagateDelta(cur, wd.g, inj, nil, tb)
			sp.Finish()
			if err != nil {
				return fmt.Errorf("delta probe: %w", err)
			}
			cur = next
			changed += float64(len(ch))
			steps++
		}
	}
	if steps > 0 {
		L["bgp.delta_changed_mean"] = changed / steps
	}
	return nil
}

// probeEvents replays the first n events of a fault schedule on a
// benchmark-owned world with a CatchmentAnalyzer attached, timing each
// ApplyEvent and the incremental catchment update after it.
func probeEvents(t *tracing, parent *span.Span, wd *world, sched chaos.Schedule, n int) error {
	an := netsim.NewCatchmentAnalyzer(wd.w, wd.all, 0)
	defer an.Close()
	if _, err := an.Update(); err != nil {
		return fmt.Errorf("catchment probe: %w", err)
	}
	for i, se := range sched {
		if i >= n {
			break
		}
		sp := t.start(parent, "netsim.apply_event")
		err := wd.w.ApplyEvent(se.Ev)
		sp.Finish()
		if err != nil {
			return fmt.Errorf("event probe: %w", err)
		}
		sp = t.start(parent, "netsim.catchment_update")
		_, _ = an.Update() // a world with every PoP down has no catchment; the time still counts
		sp.Finish()
	}
	return nil
}

// probeSpans fills the probe rows from their spans.
func probeSpans(L map[string]float64, st spanTimes) {
	L["netsim.resolve_cold_us"] = st.medianUs("netsim.resolve_cold")
	L["netsim.resolve_warm_us"] = st.medianUs("netsim.resolve_warm")
	L["bgp.propagate_us"] = st.medianUs("bgp.propagate")
	L["bgp.delta_us"] = st.medianUs("bgp.delta")
	L["netsim.apply_event_us"] = st.medianUs("netsim.apply_event")
	L["netsim.catchment_update_ms"] = st.medianMs("netsim.catchment_update")
}
