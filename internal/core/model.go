// Package core implements PAINTER's Advertisement Orchestrator (§3.1):
// the benefit model (Eq. 1), the modeled-improvement expectation with
// preference learning and reuse-distance exclusions (Eq. 2), and the
// greedy prefix-to-peering allocation with an outer learning loop
// (Algorithm 1).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"painter/internal/advertise"
	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/obs/span"
	"painter/internal/usergroup"
)

// Inputs is everything the orchestrator can legitimately observe before
// conducting any advertisement: the deployment, the user groups with
// traffic weights, policy-compliant ingress sets derived from BGP feeds
// and customer cones, per-ingress latency estimates from the measurement
// system, and measured anycast latencies (the default configuration D).
type Inputs struct {
	Deploy *cloud.Deployment
	UGs    *usergroup.Set

	// CompliantIDs (required) returns the policy-compliant ingress set
	// of a UG as an ascending-sorted slice that the orchestrator treats
	// as read-only and may share across UGs of the same AS (netsim's
	// CompliantIngressIDs plugs in directly).
	CompliantIDs func(ug usergroup.UG) ([]bgp.IngressID, error)
	// EstLatencyMs returns the estimated latency from a UG through an
	// ingress; ok=false when the measurement system has no target for
	// the pair (coverage limits, Appendix B).
	EstLatencyMs func(ug usergroup.UG, ing bgp.IngressID) (float64, bool)
	// AnycastMs returns the measured anycast latency for a UG.
	AnycastMs func(ug usergroup.UG) (float64, error)
}

// Observation is what executing an advertisement reveals: which ingress
// a UG actually selected for a prefix, and the measured latency.
type Observation struct {
	UG        usergroup.ID
	Prefix    int
	Ingress   bgp.IngressID
	LatencyMs float64
}

// Executor conducts advertisements in the world (BGP announcements on
// the real Internet for the prototype; route propagation in netsim for
// the simulation) and reports per-UG observations.
type Executor interface {
	Execute(cfg Config) ([]Observation, error)
}

// TracedExecutor is optionally implemented by executors that can record
// their work as children of the solve loop's span (per-prefix resolve
// and cache decisions). Solve type-asserts for it, so plain Executors
// keep working untraced.
type TracedExecutor interface {
	Executor
	ExecuteTraced(cfg Config, parent *span.Span) ([]Observation, error)
}

// Config is the advertisement configuration type shared with the
// baseline strategies.
type Config = advertise.Config

// ugState is the orchestrator's working state for one UG, laid out flat
// for the Azure-scale solve: the compliant set is an ascending-sorted
// slice (shared read-only across UGs of the same AS until the first
// compliance correction copies it), latency estimates are rank-indexed
// parallel to it, and PoP distances live in a per-metro row shared by
// every UG in the metro and indexed by raw IngressID. At 10⁵ UGs this
// replaces three maps per UG (~50 KB each) with ~12 bytes per compliant
// ingress plus nothing for distances.
type ugState struct {
	ug usergroup.UG
	// compliant is the ascending-sorted policy-compliant ingress set.
	compliant []bgp.IngressID
	// ownsComp marks compliant (and est) as privately owned; false while
	// the slice is shared, so the first learned compliance correction
	// copies before inserting.
	ownsComp bool
	// est[r] is the latency estimate for compliant[r]; NaN when the
	// measurement system has no coverage for the pair. Entries are
	// replaced by measured values as advertisements reveal truth.
	est []float64
	// popDist[ing] is the distance (km) from the UG's metro to ingress
	// ing's PoP, for the D_reuse exclusion. The row is shared by every
	// UG in the metro and indexed by raw IngressID; it must only be
	// indexed with deployment peering IDs.
	popDist []float64
	anycast float64
	// Learned preference facts (§3.1: "this UG routes to i over j when
	// both are available"), as one bitset row over compliant ranks per
	// ingress that has won an observation: bit j of rank i's row is set
	// when compliant[i] beats compliant[j]. rows holds the rows back to
	// back, words uint64s each, in order of first win; rowOf[r] is 1 + the
	// index of rank r's row, 0 while compliant[r] has never won. All nil
	// until the first observation. An ingress never beats itself, so the
	// OR of the rows of a set's members has bit j set exactly when some
	// other member dominates j.
	rows  []uint64
	rowOf []int32
	words int
}

// factRow returns rank r's preference row, nil when compliant[r] has
// never won an observation.
func (st *ugState) factRow(r int) []uint64 {
	if st.rowOf == nil || st.rowOf[r] == 0 {
		return nil
	}
	k := int(st.rowOf[r])
	return st.rows[(k-1)*st.words : k*st.words]
}

// winnerRow is factRow that gives rank r a (zero) row if it has none.
func (st *ugState) winnerRow(r int) []uint64 {
	if st.rowOf == nil {
		st.rowOf = make([]int32, len(st.compliant))
		st.words = (len(st.compliant) + 63) / 64
	}
	if st.rowOf[r] == 0 {
		st.rows = append(st.rows, make([]uint64, st.words)...)
		st.rowOf[r] = int32(len(st.rows) / st.words)
	}
	return st.factRow(r)
}

// hasBit reports whether bit r of row is set.
func hasBit(row []uint64, r int32) bool { return row[r>>6]&(1<<(r&63)) != 0 }

func setBit(row []uint64, r int) { row[r>>6] |= 1 << (r & 63) }

// rank returns the index of ing in the sorted compliant set, or -1.
func (st *ugState) rank(ing bgp.IngressID) int {
	lo, hi := 0, len(st.compliant)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.compliant[mid] < ing {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st.compliant) && st.compliant[lo] == ing {
		return lo
	}
	return -1
}

// estOf returns the latency estimate for an ingress (ok=false when the
// ingress is non-compliant or has no measurement coverage).
func (st *ugState) estOf(ing bgp.IngressID) (float64, bool) {
	r := st.rank(ing)
	if r < 0 || math.IsNaN(st.est[r]) {
		return 0, false
	}
	return st.est[r], true
}

// insertCompliant adds an observed-but-unmodeled ingress to the
// compliant set (copy-on-write when the set is shared) and returns its
// rank. The new estimate slot starts NaN, and every stored fact about a
// rank at or above the new one moves up with it.
func (st *ugState) insertCompliant(ing bgp.IngressID) int {
	pos := sort.Search(len(st.compliant), func(i int) bool { return st.compliant[i] >= ing })
	nc := make([]bgp.IngressID, len(st.compliant)+1)
	copy(nc, st.compliant[:pos])
	nc[pos] = ing
	copy(nc[pos+1:], st.compliant[pos:])
	ne := make([]float64, len(st.est)+1)
	copy(ne, st.est[:pos])
	ne[pos] = math.NaN()
	copy(ne[pos+1:], st.est[pos:])
	st.compliant, st.est, st.ownsComp = nc, ne, true
	if st.rowOf != nil {
		st.rowOf = slices.Insert(st.rowOf, pos, 0)
		words, nrows := (len(nc)+63)/64, len(st.rows)/st.words
		rows := make([]uint64, nrows*words)
		for k := 0; k < nrows; k++ {
			row := rows[k*words : (k+1)*words]
			for w, word := range st.rows[k*st.words : (k+1)*st.words] {
				for ; word != 0; word &= word - 1 {
					j := w*64 + bits.TrailingZeros64(word)
					if j >= pos {
						j++
					}
					setBit(row, j)
				}
			}
		}
		st.rows, st.words = rows, words
	}
	return pos
}

// newUGStates materializes orchestrator state from Inputs. States are
// independent, so they are built on the worker pool; the per-metro
// PoP-distance rows are built once up front and shared.
func newUGStates(in Inputs) ([]*ugState, error) {
	if in.Deploy == nil || in.UGs == nil || in.CompliantIDs == nil ||
		in.EstLatencyMs == nil || in.AnycastMs == nil {
		return nil, fmt.Errorf("core: incomplete Inputs")
	}
	rows, err := popDistRows(in.Deploy, in.UGs)
	if err != nil {
		return nil, err
	}
	states := make([]*ugState, in.UGs.Len())
	err = parallelFor(in.UGs.Len(), func(i int) error {
		ug := in.UGs.UGs[i]
		st := &ugState{ug: ug, popDist: rows[ug.Metro]}
		ids, err := in.CompliantIDs(ug)
		if err != nil {
			return fmt.Errorf("core: compliant(%d): %w", ug.ID, err)
		}
		st.compliant = ids // shared, read-only until first correction
		any, err := in.AnycastMs(ug)
		if err != nil {
			return fmt.Errorf("core: anycast(%d): %w", ug.ID, err)
		}
		st.anycast = any
		st.est = make([]float64, len(st.compliant))
		for r, ing := range st.compliant {
			if ms, ok := in.EstLatencyMs(ug, ing); ok {
				st.est[r] = ms
			} else {
				st.est[r] = math.NaN()
			}
		}
		states[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return states, nil
}

// popDistRows builds one distance row per metro present in the UG set:
// row[ing] = km from the metro to ing's PoP, indexed by raw IngressID.
func popDistRows(d *cloud.Deployment, ugs *usergroup.Set) (map[string][]float64, error) {
	ids := d.AllPeeringIDs()
	maxID := bgp.IngressID(-1)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	rows := make(map[string][]float64)
	for i := range ugs.UGs {
		ug := &ugs.UGs[i]
		if _, ok := rows[ug.Metro]; ok {
			continue
		}
		row := make([]float64, maxID+1)
		for _, id := range ids {
			pop, err := d.PoPOfPeering(id)
			if err != nil {
				return nil, err
			}
			row[id] = geo.DistanceKm(ug.Coord, pop.Coord)
		}
		rows[ug.Metro] = row
	}
	return rows, nil
}

// Expectation is the modeled latency of a UG to one prefix: the Eq. (2)
// expectation over the active (non-excluded) policy-compliant ingresses,
// with uncertainty bounds.
type Expectation struct {
	Mean, Min, Max float64
	// N is the number of active ingresses with estimates.
	N int
}

// usable reports whether the prefix is usable by the UG at all.
func (e Expectation) usable() bool { return e.N > 0 }

// exScratch holds expectSc's reusable buffers: candidate ranks and the
// dominance mask. Never shared between concurrent goroutines.
type exScratch struct {
	ranks []int32
	dom   []uint64
}

// expectSc computes Eq. (2)'s inner expectation for one UG and one
// prefix peering set, allocation-free. Filtering order follows §3.1:
//
//  1. keep policy-compliant ingresses among the advertised peerings;
//  2. drop ingresses dominated by a learned preference ("the UG routed
//     to i when j was available, so exclude j whenever i is present");
//  3. drop ingresses whose PoP is more than reuseKm farther than the
//     nearest compliant advertising PoP (the D_reuse rule);
//  4. average the latency estimates of what remains (ingresses without
//     measurement coverage contribute no estimate).
//
// Min/Max bound the expectation over step-2's survivors only: learned
// preferences are observations (certain), but the D_reuse exclusion is
// an assumption that may be wrong — the UG might really route to the
// far PoP — so excluded-by-distance ingresses still widen the
// uncertainty band (the paper's Fig. 6c/15b uncertainty, which shrinks
// as learning replaces assumptions with facts).
func (st *ugState) expectSc(sc *exScratch, peerings []bgp.IngressID, reuseKm float64) Expectation {
	ranks := sc.ranks[:0]
	minDist := math.Inf(1)
	for _, ing := range peerings {
		r := st.rank(ing)
		if r < 0 {
			continue
		}
		ranks = append(ranks, int32(r))
		if d := st.popDist[ing]; d < minDist {
			minDist = d
		}
	}
	sc.ranks = ranks
	if len(ranks) == 0 {
		return Expectation{}
	}
	// Preference dominance: j is dropped when some other candidate beats
	// it, i.e. when bit j is set in the OR of the candidates' rows.
	var dom []uint64
	if len(st.rows) > 0 {
		dom = append(sc.dom[:0], make([]uint64, st.words)...)
		sc.dom = dom
		for _, ri := range ranks {
			for w, b := range st.factRow(int(ri)) {
				dom[w] |= b
			}
		}
	}
	var sum float64
	n := 0
	e := Expectation{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, rj := range ranks {
		if dom != nil && hasBit(dom, rj) {
			continue
		}
		ms := st.est[rj]
		if math.IsNaN(ms) {
			continue
		}
		// Range over all non-dominated candidates; mean over those also
		// passing the D_reuse assumption.
		if ms < e.Min {
			e.Min = ms
		}
		if ms > e.Max {
			e.Max = ms
		}
		if st.popDist[st.compliant[rj]] <= minDist+reuseKm {
			sum += ms
			n++
		}
	}
	e.N = n
	if n == 0 {
		return Expectation{}
	}
	e.Mean = sum / float64(n)
	return e
}

// rankTable is a dense ingress → rank map for one state at a time: t[ing]
// is ing's rank in the loaded state's compliant set, −1 where ing is not
// in it. Learn loads a state once and then reads every rank of its
// observations in O(1), where rank would binary-search the compliant set
// once per (observation, peering).
type rankTable []int32

// load enters st's ranks, growing t to cover its largest ingress ID.
func (t *rankTable) load(st *ugState) {
	if n := len(st.compliant); n > 0 && int(st.compliant[n-1]) >= len(*t) {
		grown := make(rankTable, int(st.compliant[n-1])+1)
		for k := copy(grown, *t); k < len(grown); k++ {
			grown[k] = -1
		}
		*t = grown
	}
	for r, ing := range st.compliant {
		(*t)[ing] = int32(r)
	}
}

// unload resets the entries load set for st, leaving t all −1.
func (t rankTable) unload(st *ugState) {
	for _, ing := range st.compliant {
		t[ing] = -1
	}
}

// of returns ing's rank in the loaded state, or -1. Every ID in a
// compliant set is non-negative: Learn skips observations with a
// negative ingress.
func (t rankTable) of(ing bgp.IngressID) int {
	if int(ing) >= len(t) {
		return -1
	}
	return int(t[ing])
}

// learn ingests one observation for a prefix peering set: the UG chose
// `chosen` although the rest of candidates were available, so `chosen`
// beats each of them. Contradicted old facts (routing changed) are
// removed. It also replaces the latency estimate with ground truth.
// Returns the number of new facts. st must be loaded in t; a compliance
// correction reloads it.
func (st *ugState) learn(t *rankTable, peerings []bgp.IngressID, chosen bgp.IngressID, measuredMs float64) int {
	r := t.of(chosen)
	if r < 0 {
		// Observation disagrees with the compliance model; record the
		// ingress as compliant going forward (the model was wrong).
		r = st.insertCompliant(chosen)
		t.load(st)
	}
	st.est[r] = measuredMs // est is always privately owned; only compliant can be shared
	row := st.winnerRow(r)
	facts := 0
	for _, other := range peerings {
		ro := t.of(other)
		if other == chosen || ro < 0 {
			continue
		}
		if !hasBit(row, int32(ro)) {
			setBit(row, ro)
			facts++
		}
		// Remove the contradicting fact if present.
		if back := st.factRow(ro); back != nil {
			back[r>>6] &^= 1 << (r & 63)
		}
	}
	return facts
}
