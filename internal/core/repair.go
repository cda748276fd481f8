package core

// Warm-start repair: re-run the greedy inner loop only for the prefixes
// an event dirtied, against the frozen remainder of the configuration.
// The clean prefixes keep their peering sets and contribute their
// expectations to bestFrozen exactly as completed prefixes do during a
// cold ComputeConfig, so a repaired dirty prefix grows against the same
// marginal landscape it would see if it were the next prefix of a cold
// solve whose earlier prefixes happened to be the clean ones.

import (
	"sort"
	"strconv"

	"painter/internal/bgp"
	"painter/internal/obs/span"
)

// RepairConfig regrows the dirty prefixes of cfg (indices into
// cfg.Prefixes) against the frozen remainder, drops prefixes that grow
// empty, and finally grows new prefixes up to the budget if marginal
// benefit remains. live filters the candidate peerings (nil = all); dark
// masks UG states out of the benefit model (nil = none). cfg is not
// mutated.
//
// Dirty prefixes are grown speculatively in parallel on the worker pool,
// each against the clean-only frozen base. If the speculative grows
// improve disjoint UG-state sets they cannot interact — each one's
// marginals are independent of the others' placements — so all are kept.
// On overlap the speculation is discarded and the dirty prefixes are
// regrown sequentially in index order, freezing each result before the
// next, which is exactly the cold solve's ordering discipline. Both
// paths are deterministic: growPrefix is pure, candidate order is fixed,
// and the conflict test depends only on the speculative results.
func (o *Orchestrator) RepairConfig(cfg Config, dirty []int, live func(bgp.IngressID) bool, dark []bool) Config {
	return o.repairConfig(nil, cfg, dirty, live, dark)
}

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
	if len(order) > 0 {
		grown := make([][]bgp.IngressID, len(order))
		improved := make([][]int, len(order))
		_ = parallelFor(len(order), func(k int) error {
			var gs *span.Span
			if parent != nil {
				gs = parent.StartChild("core.regrow_prefix",
					span.A("prefix", strconv.Itoa(order[k])))
				defer gs.Finish()
			}
			grown[k] = o.growPrefix(cands, bestFrozen, dark)
			improved[k] = o.improvedStates(grown[k], bestFrozen, dark)
			if gs != nil {
				gs.SetAttr("peerings", strconv.Itoa(len(grown[k])))
			}
			return nil
		})
		if disjoint(improved) {
			for k, idx := range order {
				out.Prefixes[idx] = grown[k]
			}
			for _, S := range grown {
				if len(S) > 0 {
					o.freezePrefix(S, bestFrozen, dark)
				}
			}
		} else {
			// Speculation conflicted: the dirty prefixes compete for the
			// same UGs, so regrow them one at a time like a cold solve.
			var cs *span.Span
			if parent != nil {
				cs = parent.StartChild("core.regrow_sequential",
					span.A("dirty", strconv.Itoa(len(order))))
			}
			for _, idx := range order {
				S := o.growPrefix(cands, bestFrozen, dark)
				out.Prefixes[idx] = S
				if len(S) > 0 {
					o.freezePrefix(S, bestFrozen, dark)
				}
			}
			if cs != nil {
				cs.Finish()
			}
		}
	}

	// Drop prefixes that repaired to empty (e.g. their only peerings
	// failed and nothing else offers marginal benefit).
	kept := out.Prefixes[:0]
	for _, S := range out.Prefixes {
		if len(S) > 0 {
			kept = append(kept, S)
		}
	}
	out.Prefixes = kept

	// Tail growth: budget freed by dropped prefixes (or never used) may
	// now buy benefit — e.g. a recovered peering worth a prefix of its own.
	for len(out.Prefixes) < o.params.PrefixBudget {
		S := o.growPrefix(cands, bestFrozen, dark)
		if len(S) == 0 {
			break
		}
		o.m.prefixesPlaced.Inc()
		out.Prefixes = append(out.Prefixes, S)
		o.freezePrefix(S, bestFrozen, dark)
	}
	return out
}

// improvedStates returns the indices of non-dark UG states whose Eq. (2)
// expectation under S beats their frozen best — the states whose value a
// placement of S would actually change. It reads the cached contribution
// vector (the NaN sentinel for "unusable" loses the strict <).
func (o *Orchestrator) improvedStates(S []bgp.IngressID, bestFrozen []float64, dark []bool) []int {
	if len(S) == 0 {
		return nil
	}
	var out []int
	vec := o.frozenVec(S)
	for i := range o.states {
		if dark != nil && dark[i] {
			continue
		}
		if vec[i] < bestFrozen[i] {
			out = append(out, i)
		}
	}
	return out
}

// disjoint reports whether the given index sets are pairwise disjoint.
func disjoint(sets [][]int) bool {
	seen := make(map[int]bool)
	for _, s := range sets {
		for _, i := range s {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
	}
	return true
}
