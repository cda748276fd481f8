package core

// Algorithm 1's inner loops as one warm-startable pass. The clean
// prefixes of a configuration keep their peering sets and contribute
// their expectations to bestFrozen exactly as completed prefixes do;
// the dirty ones regrow in index order against that base, each frozen
// before the next; then new prefixes grow up to the budget. A repaired
// dirty prefix therefore grows against the marginal landscape it would
// see as the next prefix of a cold solve whose earlier prefixes happened
// to be the clean ones — and a cold solve is the repair of the empty
// configuration.

import (
	"sort"
	"strconv"
	"time"

	"painter/internal/bgp"
	"painter/internal/obs/span"
)

// computeConfig runs one full pass of Algorithm 1's two inner loops with
// the current routing model: the repair of the empty configuration.
func (o *Orchestrator) computeConfig(parent *span.Span, live func(bgp.IngressID) bool, dark []bool) Config {
	return o.repairConfig(parent, Config{}, nil, live, dark)
}

// repairConfig regrows the dirty prefixes of cfg (indices into
// cfg.Prefixes) against the frozen remainder, drops prefixes that grow
// empty, and finally grows new prefixes up to the budget while marginal
// benefit remains. Each regrown prefix gets a core.regrow_prefix span
// and each new one a core.place_prefix span under parent (nil parent: no
// tracing). live filters the candidate peerings (nil = all); dark masks
// UG states out of the benefit model (nil = none) — states whose AS
// currently has no anycast route, mirroring how SimInputs drops
// uncovered UGs from a cold solve. cfg is not mutated.
func (o *Orchestrator) repairConfig(parent *span.Span, cfg Config, dirty []int, live func(bgp.IngressID) bool, dark []bool) Config {
	dirtySet := make(map[int]bool, len(dirty))
	order := append([]int(nil), dirty...)
	sort.Ints(order)
	for _, i := range order {
		dirtySet[i] = true
	}

	// Frozen base: anycast plus every clean prefix's contribution.
	bestFrozen := make([]float64, len(o.states))
	for i, st := range o.states {
		bestFrozen[i] = st.anycast
	}
	for i, S := range cfg.Prefixes {
		if !dirtySet[i] {
			o.freezePrefix(S, bestFrozen, dark)
		}
	}
	cands := o.candidatePeerings(live)

	out := cfg.Clone()
	for _, idx := range order {
		var gs *span.Span
		if parent != nil {
			gs = parent.StartChild("core.regrow_prefix", span.A("prefix", strconv.Itoa(idx)))
		}
		S := o.growPrefix(cands, bestFrozen, dark)
		if gs != nil {
			gs.SetAttr("peerings", strconv.Itoa(len(S)))
			gs.Finish()
		}
		out.Prefixes[idx] = S
		if len(S) > 0 {
			o.freezePrefix(S, bestFrozen, dark)
		}
	}

	// Drop prefixes that repaired to empty (e.g. their only peerings
	// failed and nothing else offers marginal benefit). kept stays nil
	// when none remain, so an empty cold solve returns nil Prefixes.
	var kept [][]bgp.IngressID
	for _, S := range out.Prefixes {
		if len(S) > 0 {
			kept = append(kept, S)
		}
	}
	out.Prefixes = kept

	// Tail growth: budget freed by dropped prefixes (or never used) may
	// now buy benefit — e.g. a recovered peering worth a prefix of its own.
	for len(out.Prefixes) < o.params.PrefixBudget {
		var growStart time.Time
		if o.m.on() {
			growStart = time.Now()
		}
		var ps *span.Span
		if parent != nil {
			ps = parent.StartChild("core.place_prefix", span.A("prefix", strconv.Itoa(len(out.Prefixes))))
		}
		S := o.growPrefix(cands, bestFrozen, dark)
		if ps != nil {
			ps.SetAttr("peerings", strconv.Itoa(len(S)))
			ps.Finish()
		}
		if o.m.on() {
			o.m.prefixGrowSeconds.Observe(time.Since(growStart).Seconds())
		}
		if len(S) == 0 {
			break // no peering offers positive benefit: further prefixes won't either
		}
		o.m.prefixesPlaced.Inc()
		out.Prefixes = append(out.Prefixes, S)
		o.freezePrefix(S, bestFrozen, dark)
	}
	return out
}
