// Package netsim binds the topology, deployment, and geography into a
// queryable "Internet in a box": it answers the questions the paper's
// testbeds answered — which cloud ingress does a user group reach under
// a given advertisement, with what latency, and how does that evolve
// over days of routing drift and failures.
//
// Two properties matter for faithfulness to the paper:
//
//  1. Route selection has a component the orchestrator cannot predict:
//     each AS holds hidden per-ingress preferences used to break ties
//     (and, with small probability, to override distance intuition the
//     way the paper's "New York prefers Amsterdam" example does). The
//     Advertisement Orchestrator must learn these by advertising and
//     observing, exactly as on the real Internet.
//
//  2. Latency is grounded in geography but includes path inflation:
//     some (UG, ingress) pairs detour far beyond the great-circle
//     distance, and transit providers inflate routes even over very
//     large distances (§5.1.2 "Results").
//
// Hot state is laid out flat for Azure-scale worlds: per-ingress
// attributes and the fault overlay are dense slices indexed by raw
// IngressID, per-AS caches (hidden preferences, compliance, ancestors,
// best-ingress memo) are rows indexed by the topology Index's dense AS
// ordinal, and the propagation cache is keyed by a 64-bit hash of the
// canonical peering set instead of a byte-string. Semantics — hit/miss
// accounting, invalidation precision, determinism — are identical to
// the old map-backed layout (pinned by the differential tests).
package netsim

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/obs/span"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// World is an immutable-topology, time-evolving network simulator.
//
// Concurrency contract: all query methods (LatencyMs, BaseLatencyMs,
// ResolveIngress, Land, CompliantIngressIDs,
// BestIngressLatency, TieBreaker and the tie-breaker it returns) are
// safe for concurrent use. The state-changing methods SetDay and
// ApplyEvent are NOT: they must not run concurrently with any query
// (advance the clock or apply events between query waves, as the
// Fig. 7 drift experiment and the chaos engine do).
type World struct {
	Graph  *topology.Graph
	Deploy *cloud.Deployment

	seed uint64
	day  int

	// Tunables (set before first use; zero values replaced by defaults).

	// idx assigns every AS a dense ordinal; all per-AS cache rows below
	// are indexed by it.
	idx *topology.Index
	// nIng is max deployment IngressID + 1: the length of every
	// per-ingress slice.
	nIng int

	// Per-ingress attributes, indexed by raw IngressID. ingValid marks
	// IDs that exist in the deployment (IDs are dense in practice, but
	// nothing here assumes it).
	ingValid   []bool
	popCoordOf []geo.Coord
	transitOf  []bool
	// peerPenOf is the per-peer handoff penalty (ms) of each ingress,
	// drawn once from its peer's ASN.
	peerPenOf []float64
	// popOfIng maps each peering to its PoP for outage checks.
	popOfIng []cloud.PoPID

	// asHomeOf is each AS's primary location (first metro), used for the
	// hot-potato bias in route tie-breaking; asHomeOK marks ASes that
	// have one. Indexed by dense AS ordinal.
	asHomeOf []geo.Coord
	asHomeOK []bool

	// metroOrd/metroCodes give every catalog metro a dense ordinal for
	// the best-ingress memo rows and the distance cells; metroCoord is
	// each metro's location.
	metroOrd   map[string]int32
	metroCodes []string
	metroCoord []geo.Coord
	// distCells[m*nIng+ing] memoizes geo.DistanceKm from catalog metro m
	// to ingress ing's PoP: 0 until first use, then the complement of the
	// distance's bits, so a zero distance is a filled cell. Concurrent
	// first users compute and store the same bits.
	distCells []atomic.Uint64

	// obs holds the world's metrics registry and handles (see obs.go);
	// cache counters replace the old ad-hoc stat fields and surface
	// through CacheStats() and Obs().
	obs worldObs

	// resolveMu guards the propagation cache: ResolveIngress results
	// bucketed by a hash of the canonical (sorted, live) peering set
	// plus the world day; each entry carries the exact set for
	// verification. SetDay drops the cache wholesale.
	resolveMu    sync.Mutex
	resolveCache map[uint64][]*resolveEntry
	resolveCount int
	// staleBases retains recently evicted resolve entries as delta
	// bases: a pref flip drops the cache entries containing its ingress
	// (their selections are stale) but each dropped Result is still an
	// exact propagation of its injection set under the pre-flip
	// tie-breaker — exactly what PropagateDelta needs, given the flip
	// list. FIFO-capped at maxStaleBases; cleared by SetDay.
	staleBases []staleBase

	// prefMu guards the hidden-preference cache: prefScore is pure per
	// (AS, ingress, day) and called for every tie-break candidate, so
	// memoizing it takes the geographic math off the propagation hot
	// path. Rows are lazily allocated per dense AS ordinal with NaN as
	// the absent sentinel. SetDay drops it alongside the
	// propagation cache.
	prefMu    sync.RWMutex
	prefRows  [][]float64
	prefCount int

	// polMu guards the structural (day-independent) cache rows below,
	// all indexed by dense AS ordinal with nil = not yet computed.
	polMu sync.Mutex
	// ancRows[i] is i plus its transitive providers as sorted dense
	// ordinals, for fast policy-compliance checks.
	ancRows [][]int32
	// polRows[i] is the sorted compliant ingress set of AS i (shared;
	// CompliantIngressIDs returns the row itself read-only).
	polRows [][]bgp.IngressID
	// bestRows[i][m] memoizes BestIngressLatency per (AS, metro ordinal).
	bestRows [][]bestVal

	// overlayMu guards the dynamic fault overlay (see events.go):
	// failed peerings and PoPs, latency spikes, probe loss, and
	// hidden-preference flips applied via ApplyEvent. All per-ingress
	// overlay state is dense slices; the counts make the "overlay clean"
	// fast path a two-int check.
	overlayMu    sync.RWMutex
	peeringDownF []bool
	peeringDownN int
	popDownF     []bool
	popDownN     int
	spikeMsF     []float64
	probeLossF   []int
	prefFlips    map[prefKey]uint64
	eventSeq     uint64

	// subMu guards the event subscriber list.
	subMu   sync.Mutex
	subs    []subscriber
	subNext int
}

// resolveEntry is one propagation-cache slot: the canonical peering set
// and day it was keyed under (for bucket verification and precise
// pref-flip invalidation), plus the memoized Result. The sync.Once
// lets concurrent first callers of the same key share a single
// Propagate run without holding resolveMu for its duration.
type resolveEntry struct {
	day  int
	ids  []bgp.IngressID // sorted, owned by the entry
	once sync.Once
	// done is set after once.Do completes; the delta base scan reads
	// res/err lock-free from other entries, so it checks done first
	// (Store is the release, Load the acquire).
	done atomic.Bool
	res  *bgp.Result
	err  error
}

// staleBase is an evicted propagation Result retained as a delta base,
// together with the tie-break flips applied since it was computed.
type staleBase struct {
	day   int
	ids   []bgp.IngressID
	res   *bgp.Result
	flips []topology.ASN
}

// maxStaleBases caps the stale delta-base pool (FIFO eviction).
const maxStaleBases = 256

type prefKey struct {
	as  topology.ASN
	ing bgp.IngressID
}

type bestVal struct {
	ms  float64
	ing bgp.IngressID
	err error
	set bool
}

// The synthetic network's tuning, used across the evaluation.
const (
	// detourProb is the base probability a (UG, ingress) pair suffers a
	// persistent intra-AS detour.
	detourProb = 0.08
	// transitDetourProb replaces detourProb for transit-provider
	// ingresses over long distances (the paper found transit routes
	// inflate even over 10k+ km).
	transitDetourProb = 0.16
	// detourMinMs/detourMaxMs bound the detour penalty.
	detourMinMs, detourMaxMs = 15, 150
	// accessMinMs/accessMaxMs bound per-UG last-mile latency.
	accessMinMs, accessMaxMs = 2, 14
	// dailyFailProb is the per-day probability that a (UG, ingress) path
	// is degraded that day.
	dailyFailProb = 0.015
	// failPenaltyMs is the degradation added on a failed day.
	failPenaltyMs = 120
	// driftMs bounds the ± daily latency jitter.
	driftMs = 2.5
	// prefOverrideProb is the probability that an AS holds a strong
	// hidden preference that overrides path-length ordering for a
	// specific ingress (the unpredictable routing the orchestrator must
	// learn).
	prefOverrideProb = 0.10
	// routeDriftProb is the per-day probability that an (AS, ingress)
	// hidden preference is transiently re-rolled, making route selection
	// itself drift across days (§5.1.2 / Fig. 7: paths change over time,
	// not just their latencies). Day 0 never drifts, so steady-state
	// resolution is unaffected.
	routeDriftProb = 0.05
)

// New creates a World over a topology and deployment.
func New(g *topology.Graph, d *cloud.Deployment, seed int64) (*World, error) {
	if g == nil || d == nil {
		return nil, fmt.Errorf("netsim: nil graph or deployment")
	}
	nIng := 0
	nPoP := 0
	for _, pr := range d.Peerings {
		if int(pr.ID)+1 > nIng {
			nIng = int(pr.ID) + 1
		}
		if int(pr.PoP)+1 > nPoP {
			nPoP = int(pr.PoP) + 1
		}
	}
	idx := g.Index()
	w := &World{
		Graph:  g,
		Deploy: d,
		seed:   uint64(seed),
		obs:    newWorldObs(),
		idx:    idx,
		nIng:   nIng,

		ingValid:   make([]bool, nIng),
		popCoordOf: make([]geo.Coord, nIng),
		transitOf:  make([]bool, nIng),
		peerPenOf:  make([]float64, nIng),
		popOfIng:   make([]cloud.PoPID, nIng),

		asHomeOf: make([]geo.Coord, idx.Len()),
		asHomeOK: make([]bool, idx.Len()),

		resolveCache: make(map[uint64][]*resolveEntry),
		prefRows:     make([][]float64, idx.Len()),
		ancRows:      make([][]int32, idx.Len()),
		polRows:      make([][]bgp.IngressID, idx.Len()),
		bestRows:     make([][]bestVal, idx.Len()),

		peeringDownF: make([]bool, nIng),
		popDownF:     make([]bool, nPoP),
		spikeMsF:     make([]float64, nIng),
		probeLossF:   make([]int, nIng),
		prefFlips:    make(map[prefKey]uint64),
	}
	for _, pr := range d.Peerings {
		pop := d.PoP(pr.PoP)
		if pop == nil {
			return nil, fmt.Errorf("netsim: peering %d has no PoP", pr.ID)
		}
		if pr.ID < 0 {
			return nil, fmt.Errorf("netsim: negative peering ID %d", pr.ID)
		}
		w.ingValid[pr.ID] = true
		w.popCoordOf[pr.ID] = pop.Coord
		w.peerPenOf[pr.ID] = 3 * unit(w.h64(domPeerPenalty, uint64(pr.PeerASN)))
		w.transitOf[pr.ID] = pr.IsTransit()
		w.popOfIng[pr.ID] = pr.PoP
		if !g.Has(pr.PeerASN) {
			return nil, fmt.Errorf("netsim: peering %d neighbor %v not in topology", pr.ID, pr.PeerASN)
		}
	}
	for i := 0; i < idx.Len(); i++ {
		a := g.AS(idx.ASN(int32(i)))
		if len(a.Metros) > 0 {
			if m, err := geo.MetroByCode(a.Metros[0]); err == nil {
				w.asHomeOf[i] = m.Coord
				w.asHomeOK[i] = true
			}
		}
	}
	metros := geo.Metros()
	w.metroOrd = make(map[string]int32, len(metros))
	w.metroCodes = make([]string, len(metros))
	w.metroCoord = make([]geo.Coord, len(metros))
	for i, m := range metros {
		w.metroOrd[m.Code] = int32(i)
		w.metroCodes[i] = m.Code
		w.metroCoord[i] = m.Coord
	}
	w.distCells = make([]atomic.Uint64, len(metros)*nIng)
	return w, nil
}

// Day returns the current simulation day.
func (w *World) Day() int { return w.day }

// SetDay moves the world to an absolute day (used by the Fig. 7 drift
// experiment) and drops the propagation cache, since hidden preferences
// drift with the day. Not safe concurrently with queries.
func (w *World) SetDay(d int) {
	if d == w.day {
		return
	}
	w.day = d
	w.obs.day.Set(float64(d))
	w.resolveMu.Lock()
	w.obs.resolveInval.Add(uint64(w.resolveCount))
	w.resolveCache = make(map[uint64][]*resolveEntry)
	w.resolveCount = 0
	// Stale delta bases are day-scoped: preference drift re-rolls with
	// the day, so a previous day's Result is not a valid base.
	w.staleBases = nil
	w.resolveMu.Unlock()
	w.prefMu.Lock()
	w.obs.prefInval.Add(uint64(w.prefCount))
	for i := range w.prefRows {
		w.prefRows[i] = nil
	}
	w.prefCount = 0
	w.prefMu.Unlock()
}

// --- Deterministic hashing -------------------------------------------------

// h64 hashes a tuple of ints with the world seed into a uint64 using a
// splitmix64-style mixer: fully deterministic across runs and processes.
func (w *World) h64(parts ...uint64) uint64 {
	h := mix64(w.seed ^ 0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = mix64(h ^ mix64(p+0x9e3779b97f4a7c15))
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit converts a hash into a float in [0,1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// domain tags keep independent random draws independent.
const (
	domStretch = iota + 1
	domAccess
	domDetourP
	domDetourMs
	domPeerPenalty
	domDrift
	domFail
	domPref
	domPrefOverride
	// Appended after the original tags so their values — and therefore
	// every pre-existing deterministic draw — are unchanged.
	domRouteDrift
	domRouteDriftVal
	domPrefFlip
)

// --- Latency model ----------------------------------------------------------

// LatencyMs returns the round-trip latency in milliseconds from a UG
// (identified by its AS and metro) to the cloud through the given
// ingress, on the world's current day. Latency is deterministic per
// (world seed, UG, ingress, day).
// Transient per-ingress latency spikes applied via ApplyEvent are
// included; BaseLatencyMs is not affected by them.
func (w *World) LatencyMs(asn topology.ASN, metro string, ing bgp.IngressID) (float64, error) {
	base, err := w.BaseLatencyMs(asn, metro, ing)
	if err != nil {
		return 0, err
	}
	return base + w.dayAdjustMs(asn, metro, ing) + w.latencySpikeMs(ing), nil
}

// knownIngress reports whether ing is a deployment peering.
func (w *World) knownIngress(ing bgp.IngressID) bool {
	return ing >= 0 && int(ing) < w.nIng && w.ingValid[ing]
}

// BaseLatencyMs is the steady-state (day-independent) latency.
func (w *World) BaseLatencyMs(asn topology.ASN, metro string, ing bgp.IngressID) (float64, error) {
	if !w.knownIngress(ing) {
		return 0, fmt.Errorf("netsim: unknown ingress %d", ing)
	}
	distKm, err := w.distanceKm(metro, ing)
	if err != nil {
		return 0, err
	}
	geoRTT := geo.KmToMinRTTMs(distKm)

	ugKey := uint64(asn)<<16 ^ metroKey(metro)
	ik := uint64(ing)

	// Fiber stretch in [1.2, 1.9), per pair.
	stretch := 1.2 + 0.7*unit(w.h64(domStretch, ugKey, ik))
	// Last-mile access latency, per UG.
	access := accessMinMs + (accessMaxMs-accessMinMs)*unit(w.h64(domAccess, ugKey))
	lat := geoRTT*stretch + access + w.peerPenOf[ing]

	// Persistent detour: more likely via transit providers over long
	// distances.
	p := detourProb
	if w.transitOf[ing] && distKm > 2000 {
		p = transitDetourProb
	}
	if unit(w.h64(domDetourP, ugKey, ik)) < p {
		lat += detourMinMs + (detourMaxMs-detourMinMs)*unit(w.h64(domDetourMs, ugKey, ik))
	}
	return lat, nil
}

// distanceKm is geo.DistanceKm from a metro to known ingress ing's PoP,
// memoized in distCells for catalog metros; any other metro goes through
// geo.MetroByCode on every call.
func (w *World) distanceKm(metro string, ing bgp.IngressID) (float64, error) {
	mo, ok := w.metroOrd[metro]
	if !ok {
		m, err := geo.MetroByCode(metro)
		if err != nil {
			return 0, err
		}
		return geo.DistanceKm(m.Coord, w.popCoordOf[ing]), nil
	}
	cell := &w.distCells[int(mo)*w.nIng+int(ing)]
	if v := cell.Load(); v != 0 {
		return math.Float64frombits(^v), nil
	}
	d := geo.DistanceKm(w.metroCoord[mo], w.popCoordOf[ing])
	cell.Store(^math.Float64bits(d))
	return d, nil
}

// dayAdjustMs is the time-varying component: daily jitter plus possible
// failure-day degradation.
func (w *World) dayAdjustMs(asn topology.ASN, metro string, ing bgp.IngressID) float64 {
	if w.day == 0 {
		return 0
	}
	ugKey := uint64(asn)<<16 ^ metroKey(metro)
	ik := uint64(ing)
	dk := uint64(w.day)
	adj := (2*unit(w.h64(domDrift, ugKey, ik, dk)) - 1) * driftMs
	if unit(w.h64(domFail, ugKey, ik, dk)) < dailyFailProb {
		adj += failPenaltyMs
	}
	return adj
}

func metroKey(metro string) uint64 {
	var k uint64
	for _, c := range metro {
		k = k*131 + uint64(c)
	}
	return k
}

// --- Route selection ---------------------------------------------------------

// TieBreaker returns the hidden-preference tie-breaker used by every AS
// in this world. Preferences are stable per (AS, ingress) and unknown to
// the orchestrator; a fraction of ASes additionally hold strong
// overriding preferences for specific ingresses.
//
// The returned closure reads the world-level flat preference rows
// directly and is safe for concurrent use (the old per-closure memo, and
// its per-goroutine restriction, are gone).
func (w *World) TieBreaker() bgp.TieBreaker {
	return func(as topology.ASN, cands []bgp.Route) int {
		best := 0
		bestScore := w.prefScore(as, cands[0].Ingress)
		for i := 1; i < len(cands); i++ {
			if s := w.prefScore(as, cands[i].Ingress); s < bestScore {
				best, bestScore = i, s
			}
		}
		return best
	}
}

// prefScore memoizes prefScoreUncached per (AS, ingress): the score is
// deterministic for a given day, and tie-breaking evaluates it for every
// candidate at every AS, so the cache removes repeated geographic math
// from the propagation hot path. Rows live per dense AS ordinal with NaN
// marking absent slots (scores themselves are always finite).
// SetDay resets it.
func (w *World) prefScore(as topology.ASN, ing bgp.IngressID) float64 {
	ai, known := w.idx.ID(as)
	cacheable := known && ing >= 0 && int(ing) < w.nIng
	if cacheable {
		w.prefMu.RLock()
		var s float64 = math.NaN()
		if row := w.prefRows[ai]; row != nil {
			s = row[ing]
		}
		w.prefMu.RUnlock()
		if !math.IsNaN(s) {
			w.obs.prefHits.Inc()
			return s
		}
	}
	w.obs.prefMiss.Inc()
	s := w.prefScoreUncached(as, ing)
	if cacheable {
		w.prefMu.Lock()
		row := w.prefRows[ai]
		if row == nil {
			row = nanRow(w.nIng)
			w.prefRows[ai] = row
		}
		if math.IsNaN(row[ing]) {
			w.prefCount++
		}
		row[ing] = s
		w.prefMu.Unlock()
	}
	return s
}

// nanRow allocates a preference row with every slot absent.
func nanRow(n int) []float64 {
	row := make([]float64, n)
	nan := math.NaN()
	for i := range row {
		row[i] = nan
	}
	return row
}

// prefScoreUncached is the hidden preference (lower is preferred). Real ASes
// break ties hot-potato: they hand traffic off at the geographically
// nearest interconnection (lowest IGP cost), so the score is dominated
// by distance from the AS's home to the ingress PoP, perturbed by
// per-(AS, ingress) noise. A fraction of pairs hold strong overrides
// that defy geography entirely — the "New York prefers Amsterdam"
// routing the orchestrator must learn (§5.1.2).
func (w *World) prefScoreUncached(as topology.ASN, ing bgp.IngressID) float64 {
	noise := unit(w.h64(domPref, uint64(as), uint64(ing)))
	s := noise
	if ai, ok := w.idx.ID(as); ok && w.asHomeOK[ai] && w.knownIngress(ing) {
		distNorm := geo.DistanceKm(w.asHomeOf[ai], w.popCoordOf[ing]) / 20000 // 0..~1
		s = 0.75*distNorm + 0.25*noise
	}
	// A strong override pulls the score near zero, making this ingress
	// dominate all ties for this AS regardless of geography.
	if unit(w.h64(domPrefOverride, uint64(as), uint64(ing))) < prefOverrideProb {
		s *= 0.02
	}
	// Daily route drift: a small fraction of (AS, ingress) preferences
	// are transiently re-rolled each day, so the route an AS selects can
	// change day over day (Fig. 7). Day 0 is the undrifted steady state.
	if w.day != 0 {
		dk := uint64(w.day)
		if unit(w.h64(domRouteDrift, uint64(as), uint64(ing), dk)) < routeDriftProb {
			s = unit(w.h64(domRouteDriftVal, uint64(as), uint64(ing), dk))
		}
	}
	// A hidden-preference flip (EventPrefFlip) re-rolls the score
	// deterministically per flip count: equal event histories reproduce
	// equal preferences, but each flip shifts this AS's tie-breaking for
	// this ingress unpredictably.
	if n := w.prefFlipCount(prefKey{as: as, ing: ing}); n > 0 {
		s = unit(w.h64(domPrefFlip, uint64(as), uint64(ing), n))
	}
	return s
}

// ResolveIngress propagates one prefix advertised via the given peerings
// and returns the route each AS selects (Result.Route; an AS with no
// policy-compliant route has none).
//
// Results are memoized per (canonical peering set, world day): the
// peering slice is sorted into a canonical form, so permuted-but-equal
// slices hit the same cache entry. SetDay invalidates the cache. The
// returned Result is shared with the cache and immutable; callers that
// keep a previous Result can diff against it (Result.Diff,
// AnycastShift).
//
// Peerings failed via ApplyEvent are filtered out before the key is
// built: an advertisement over a withdrawn peering simply injects
// nothing there. Entries keyed with a down peering are therefore
// unreachable while it is down and valid again on recovery; preference
// flips drop the entries they can affect (see events.go).
func (w *World) ResolveIngress(peerings []bgp.IngressID) (*bgp.Result, error) {
	e := w.resolveEntryFor(peerings, nil)
	return e.res, e.err
}

// Land is Algorithm 1's measure step for one advertisement: it resolves
// the prefix advertised via peerings (as ResolveIngress) and calls land
// once per UG, in ugs order, with the ingress the UG's AS selects and
// the latency through it on the current day (LatencyMs). A UG whose AS
// has no route lands on bgp.InvalidIngress with NaN latency. A non-nil
// parent gets a netsim.resolve child span recording the cache decision
// and, on a miss, the propagation run. Land stops at the first error.
func (w *World) Land(peerings []bgp.IngressID, ugs []usergroup.UG, parent *span.Span,
	land func(i int, ing bgp.IngressID, ms float64)) error {
	e := w.resolveEntryFor(peerings, parent)
	if e.err != nil {
		return e.err
	}
	for i := range ugs {
		ug := &ugs[i]
		r, ok := e.res.Route(ug.ASN)
		if !ok {
			land(i, bgp.InvalidIngress, math.NaN())
			continue
		}
		ms, err := w.LatencyMs(ug.ASN, ug.Metro, r.Ingress)
		if err != nil {
			return err
		}
		land(i, r.Ingress, ms)
	}
	return nil
}

// sortBuf is the pooled scratch for canonicalizing a resolve's peering
// set without allocating per call.
type sortBuf struct{ ids []bgp.IngressID }

var sortBufPool = sync.Pool{New: func() any { return new(sortBuf) }}

// resolveEntryFor finds or computes the propagation-cache entry for a
// peering set. On a miss it first looks for a close cached base (live
// entry or stale pool) and repairs it with PropagateDelta — byte-
// identical to a full propagation, pinned by the differential tests —
// falling back to a full run when no base is close enough.
func (w *World) resolveEntryFor(peerings []bgp.IngressID, parent *span.Span) *resolveEntry {
	buf := sortBufPool.Get().(*sortBuf)
	sorted := append(buf.ids[:0], peerings...)
	slices.Sort(sorted)
	sorted = w.filterLive(sorted)
	buf.ids = sorted[:0]
	h := resolveHash(w.day, sorted)

	// Span construction (attr formatting included) is guarded so the
	// untraced hot path pays exactly one nil check.
	var s *span.Span
	if parent != nil {
		s = parent.StartChild("netsim.resolve",
			span.A("peerings", strconv.Itoa(len(sorted))),
			span.A("day", strconv.Itoa(w.day)))
	}

	w.resolveMu.Lock()
	if w.resolveCache == nil {
		w.resolveCache = make(map[uint64][]*resolveEntry)
	}
	var e *resolveEntry
	for _, cand := range w.resolveCache[h] {
		if cand.day == w.day && slices.Equal(cand.ids, sorted) {
			e = cand
			break
		}
	}
	hit := e != nil
	if hit {
		w.obs.resolveHits.Inc()
	} else {
		w.obs.resolveMiss.Inc()
		e = &resolveEntry{day: w.day, ids: slices.Clone(sorted)}
		w.resolveCache[h] = append(w.resolveCache[h], e)
		w.resolveCount++
	}
	w.resolveMu.Unlock()
	sortBufPool.Put(buf)
	if hit {
		s.SetAttr("cache", "hit")
	} else {
		s.SetAttr("cache", "miss")
	}

	// Propagation order is immaterial to the result (candidates are
	// sorted before tie-breaking), so resolving from the canonical slice
	// is equivalent to resolving from the caller's order.
	e.once.Do(func() {
		defer e.done.Store(true)
		inj, err := w.Deploy.Injections(e.ids)
		if err != nil {
			e.err = err
			return
		}
		tb := w.TieBreaker()
		if base, flips := w.findDeltaBase(e.day, e.ids); base != nil {
			if res, _, derr := bgp.PropagateDeltaTraced(base, w.Graph, inj, flips, tb, s); derr == nil {
				w.obs.resolveDelta.Inc()
				e.res = res
				return
			}
		}
		w.obs.resolveFull.Inc()
		e.res, e.err = bgp.PropagateResultTraced(w.Graph, inj, tb, s)
	})
	if s != nil {
		if e.err != nil {
			s.SetAttr("error", e.err.Error())
		}
		s.Finish()
	}
	return e
}

// findDeltaBase scans the live propagation cache and the stale pool for
// the cached Result closest to the target peering set (minimum
// symmetric difference), along with the tie-break flips applied since
// it was computed (always empty for live entries: flips evict the
// entries they can affect). A base is accepted only when the sets
// overlap substantially — 2*symdiff <= max(4, |union|) — past that
// point the run from the empty Result (PropagateResult) is no slower
// than repairing a base that differs in half its injections.
func (w *World) findDeltaBase(day int, sorted []bgp.IngressID) (*bgp.Result, []topology.ASN) {
	w.resolveMu.Lock()
	defer w.resolveMu.Unlock()
	var best *bgp.Result
	var bestFlips []topology.ASN
	bestSD := -1
	consider := func(ids []bgp.IngressID, res *bgp.Result, flips []topology.ASN) {
		sd := symDiffSize(ids, sorted)
		if bestSD >= 0 && sd >= bestSD {
			return
		}
		union := (len(ids) + len(sorted) + sd) / 2
		if 2*sd > max(4, union) {
			return
		}
		best, bestFlips, bestSD = res, flips, sd
	}
	for _, bucket := range w.resolveCache {
		for _, e := range bucket {
			if e.day != day || !e.done.Load() || e.err != nil || e.res == nil {
				continue
			}
			consider(e.ids, e.res, nil)
		}
	}
	for i := range w.staleBases {
		sb := &w.staleBases[i]
		if sb.day != day {
			continue
		}
		consider(sb.ids, sb.res, sb.flips)
	}
	return best, bestFlips
}

// symDiffSize counts the symmetric difference of two ascending-sorted
// ingress sets by a merge walk.
func symDiffSize(a, b []bgp.IngressID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			i++
			n++
		default:
			j++
			n++
		}
	}
	return n + (len(a) - i) + (len(b) - j)
}

// pushStaleBaseLocked appends to the stale base pool with FIFO
// eviction; caller holds resolveMu.
func (w *World) pushStaleBaseLocked(sb staleBase) {
	if len(w.staleBases) >= maxStaleBases {
		copy(w.staleBases, w.staleBases[1:])
		w.staleBases[len(w.staleBases)-1] = sb
		return
	}
	w.staleBases = append(w.staleBases, sb)
}

// resolveHash hashes (day, sorted peering set) into the propagation
// cache's bucket key; entries verify the exact set, so collisions cost a
// comparison, never a wrong answer.
func resolveHash(day int, sorted []bgp.IngressID) uint64 {
	h := mix64(uint64(int64(day)) ^ 0x9e3779b97f4a7c15)
	for _, id := range sorted {
		h = mix64(h ^ mix64(uint64(uint32(id))+0x9e3779b97f4a7c15))
	}
	return h
}

// --- Policy compliance --------------------------------------------------------

// ancRow returns dense ordinal i plus its transitive providers as a
// sorted row of dense ordinals (cached; shared, read-only).
func (w *World) ancRow(i int32) []int32 {
	w.polMu.Lock()
	if r := w.ancRows[i]; r != nil {
		w.polMu.Unlock()
		return r
	}
	w.polMu.Unlock()
	seen := make([]bool, w.idx.Len())
	seen[i] = true
	row := []int32{i}
	stack := []int32{i}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range w.idx.Providers(cur) {
			if !seen[p] {
				seen[p] = true
				row = append(row, p)
				stack = append(stack, p)
			}
		}
	}
	slices.Sort(row)
	w.polMu.Lock()
	w.ancRows[i] = row
	w.polMu.Unlock()
	return row
}

// emptyCompliantRow is the computed-but-empty sentinel for polRows (nil
// means "not computed yet").
var emptyCompliantRow = []bgp.IngressID{}

// CompliantIngressIDs returns the deployment peerings through which
// the given AS has any policy-compliant (valley-free) path to the cloud,
// as an ascending-sorted row shared with the cache: callers must treat
// it as read-only. It uses cached ancestor sets;
// TestPolicyCompliantMatchesBGP checks it for every AS against a
// per-injection valley-free walk over all peerings (the test oracle
// reachableIngresses). Rows are memoized per ASN (the topology and
// deployment are immutable).
func (w *World) CompliantIngressIDs(asn topology.ASN) ([]bgp.IngressID, error) {
	ai, ok := w.idx.ID(asn)
	if !ok {
		return nil, fmt.Errorf("netsim: unknown AS %v", asn)
	}
	w.polMu.Lock()
	if r := w.polRows[ai]; r != nil {
		w.polMu.Unlock()
		return r, nil
	}
	w.polMu.Unlock()

	up := w.ancRow(ai)
	// upPeer: up ∪ peers(up), as dense-ordinal membership bitmaps.
	n := w.idx.Len()
	upBits := make([]bool, n)
	upPeerBits := make([]bool, n)
	for _, a := range up {
		upBits[a] = true
		upPeerBits[a] = true
		for _, p := range w.idx.Peers(a) {
			upPeerBits[p] = true
		}
	}
	row := emptyCompliantRow
	for _, pr := range w.Deploy.Peerings {
		pi, ok := w.idx.ID(pr.PeerASN)
		if !ok {
			continue
		}
		if pr.ClassAtPeer == bgp.ClassCustomer {
			// Transit: reachable iff some ancestor of the neighbor is in
			// upPeer (valley-free walk: up, optional peer hop, down to
			// the neighbor).
			for _, a := range w.ancRow(pi) {
				if upPeerBits[a] {
					row = append(row, pr.ID)
					break
				}
			}
		} else {
			// Settlement-free peer: the route only descends the
			// neighbor's customer cone, so the AS must be in it.
			if upBits[pi] {
				row = append(row, pr.ID)
			}
		}
	}
	slices.Sort(row)
	w.polMu.Lock()
	w.polRows[ai] = row
	w.polMu.Unlock()
	return row, nil
}

// containsIngress reports membership in an ascending-sorted ingress row.
func containsIngress(row []bgp.IngressID, id bgp.IngressID) bool {
	_, ok := slices.BinarySearch(row, id)
	return ok
}

// BestIngressLatency returns the minimum base latency over the AS's
// policy-compliant live ingresses — the best any advertisement strategy
// could ever deliver to this UG (the "One per Peering gives all the
// benefit" upper bound of §5.1.2). Results are memoized per (ASN,
// metro): base latency is day-independent, so only ApplyEvent failures
// and recoveries invalidate entries — and only the entries whose answer
// they can change (see events.go).
func (w *World) BestIngressLatency(asn topology.ASN, metro string) (float64, bgp.IngressID, error) {
	ai, aok := w.idx.ID(asn)
	mo, mok := w.metroOrd[metro]
	if !aok || !mok {
		// Unknown AS (errors below) or off-catalog metro: uncacheable.
		w.obs.bestMiss.Inc()
		return w.bestIngressLatency(asn, metro)
	}
	w.polMu.Lock()
	if row := w.bestRows[ai]; row != nil && row[mo].set {
		v := row[mo]
		w.polMu.Unlock()
		w.obs.bestHits.Inc()
		return v.ms, v.ing, v.err
	}
	w.polMu.Unlock()
	w.obs.bestMiss.Inc()
	ms, ing, err := w.bestIngressLatency(asn, metro)
	w.polMu.Lock()
	if w.bestRows[ai] == nil {
		w.bestRows[ai] = make([]bestVal, len(w.metroCodes))
	}
	w.bestRows[ai][mo] = bestVal{ms: ms, ing: ing, err: err, set: true}
	w.polMu.Unlock()
	return ms, ing, err
}

func (w *World) bestIngressLatency(asn topology.ASN, metro string) (float64, bgp.IngressID, error) {
	pc, err := w.CompliantIngressIDs(asn)
	if err != nil {
		return 0, bgp.InvalidIngress, err
	}
	best := math.Inf(1)
	bestID := bgp.InvalidIngress
	for _, ing := range pc {
		if w.IngressDown(ing) {
			continue
		}
		l, err := w.BaseLatencyMs(asn, metro, ing)
		if err != nil {
			return 0, bgp.InvalidIngress, err
		}
		if l < best || (l == best && ing < bestID) {
			best, bestID = l, ing
		}
	}
	if bestID == bgp.InvalidIngress {
		return 0, bestID, fmt.Errorf("netsim: AS %v has no policy-compliant ingress", asn)
	}
	return best, bestID, nil
}
