package netsim

// Event/hook layer: the dynamic fault overlay on an otherwise
// immutable-topology World. ApplyEvent mutates the overlay (peering and
// PoP failures, latency spikes, probe loss, hidden-preference flips) and
// invalidates exactly the cached answers the event can change — never
// the whole cache:
//
//   - Peering/PoP down/up: ResolveIngress filters failed peerings out of
//     the canonical key, so propagation-cache entries keyed with a down
//     ingress are simply unreachable while it is down and valid again on
//     recovery — no resolve invalidation is needed. BestIngressLatency
//     entries are dropped only when the event can change their answer:
//     on failure, entries whose cached winner is the failed ingress; on
//     recovery, entries the recovered ingress could now win (it is
//     policy-compliant for the AS and at least ties the cached best).
//   - Hidden-preference flips drop the single (AS, ingress) preference
//     memo entry plus the propagation-cache entries whose peering set
//     contains that ingress — tie-breaks elsewhere cannot see the flip.
//   - Latency spikes and probe loss never alter route selection, so no
//     route or preference cache is touched. Spikes surface in LatencyMs;
//     probe loss is metadata for the Traffic Manager substrate bridge.
//
// Like SetDay, ApplyEvent must not run concurrently with
// queries (apply events between query waves); Subscribe/notify are
// internally locked.

import (
	"fmt"
	"math"
	"slices"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/topology"
)

// EventKind discriminates world events.
type EventKind uint8

// World event kinds.
const (
	// EventPeeringDown withdraws one peering: routes can no longer enter
	// the cloud through it (link failure / prefix withdrawal).
	EventPeeringDown EventKind = iota + 1
	// EventPeeringUp restores a failed peering.
	EventPeeringUp
	// EventPoPDown fails every peering at a PoP (site outage).
	EventPoPDown
	// EventPoPUp restores a failed PoP.
	EventPoPUp
	// EventLatencySpike adds Ms milliseconds to every path through the
	// ingress (Ms <= 0 clears the spike).
	EventLatencySpike
	// EventProbeLoss sets the probe-loss percentage on the ingress for
	// the Traffic Manager substrate (Pct <= 0 clears it).
	EventProbeLoss
	// EventPrefFlip re-rolls the hidden preference one AS holds for one
	// ingress — the catchment-shifting routing change the orchestrator
	// cannot predict.
	EventPrefFlip
)

func (k EventKind) String() string {
	switch k {
	case EventPeeringDown:
		return "peering-down"
	case EventPeeringUp:
		return "peering-up"
	case EventPoPDown:
		return "pop-down"
	case EventPoPUp:
		return "pop-up"
	case EventLatencySpike:
		return "latency-spike"
	case EventProbeLoss:
		return "probe-loss"
	case EventPrefFlip:
		return "pref-flip"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one world state change. Only the fields its kind reads are
// meaningful: Ingress for peering-scoped kinds (and the ingress of a
// PrefFlip), PoP for PoP outages, AS for PrefFlip, Ms for spikes, Pct
// for probe loss. Seq is assigned by ApplyEvent in application order.
type Event struct {
	Kind    EventKind
	Ingress bgp.IngressID
	PoP     cloud.PoPID
	AS      topology.ASN
	Ms      float64
	Pct     int
	Seq     uint64
}

func (e Event) String() string {
	switch e.Kind {
	case EventPeeringDown, EventPeeringUp:
		return fmt.Sprintf("%v ing=%d", e.Kind, e.Ingress)
	case EventPoPDown, EventPoPUp:
		return fmt.Sprintf("%v pop=%d", e.Kind, e.PoP)
	case EventLatencySpike:
		return fmt.Sprintf("%v ing=%d ms=%.1f", e.Kind, e.Ingress, e.Ms)
	case EventProbeLoss:
		return fmt.Sprintf("%v ing=%d pct=%d", e.Kind, e.Ingress, e.Pct)
	case EventPrefFlip:
		return fmt.Sprintf("%v as=%d ing=%d", e.Kind, e.AS, e.Ingress)
	default:
		return e.Kind.String()
	}
}

type subscriber struct {
	id int
	fn func(Event)
}

// Subscribe registers a hook invoked synchronously, in registration
// order, for every successfully applied event. The returned cancel
// function removes the subscription.
func (w *World) Subscribe(fn func(Event)) (cancel func()) {
	w.subMu.Lock()
	w.subNext++
	id := w.subNext
	w.subs = append(w.subs, subscriber{id: id, fn: fn})
	w.subMu.Unlock()
	return func() {
		w.subMu.Lock()
		for i, s := range w.subs {
			if s.id == id {
				w.subs = append(w.subs[:i], w.subs[i+1:]...)
				break
			}
		}
		w.subMu.Unlock()
	}
}

func (w *World) notify(ev Event) {
	w.subMu.Lock()
	subs := append([]subscriber(nil), w.subs...)
	w.subMu.Unlock()
	for _, s := range subs {
		s.fn(ev)
	}
}

// ApplyEvent applies one event to the world, invalidates exactly the
// cached answers the event can change, and notifies subscribers. It
// returns an error (and notifies nobody) when the event references an
// unknown peering, PoP, or AS. Not safe concurrently with queries.
func (w *World) ApplyEvent(ev Event) error {
	var wentDown, cameUp []bgp.IngressID

	w.overlayMu.Lock()
	switch ev.Kind {
	case EventPeeringDown:
		if w.Deploy.Peering(ev.Ingress) == nil {
			w.overlayMu.Unlock()
			return fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		if !w.peeringDownF[ev.Ingress] {
			already := w.ingressDownLocked(ev.Ingress) // down via its PoP?
			w.peeringDownF[ev.Ingress] = true
			w.peeringDownN++
			if !already {
				wentDown = append(wentDown, ev.Ingress)
			}
		}
	case EventPeeringUp:
		if w.Deploy.Peering(ev.Ingress) == nil {
			w.overlayMu.Unlock()
			return fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		if w.peeringDownF[ev.Ingress] {
			w.peeringDownF[ev.Ingress] = false
			w.peeringDownN--
			if !w.ingressDownLocked(ev.Ingress) {
				cameUp = append(cameUp, ev.Ingress)
			}
		}
	case EventPoPDown:
		if w.Deploy.PoP(ev.PoP) == nil {
			w.overlayMu.Unlock()
			return fmt.Errorf("netsim: unknown PoP %d", ev.PoP)
		}
		if !w.popDownF[ev.PoP] {
			for _, id := range w.Deploy.PeeringsAt(ev.PoP) {
				if !w.ingressDownLocked(id) {
					wentDown = append(wentDown, id)
				}
			}
			w.popDownF[ev.PoP] = true
			w.popDownN++
		}
	case EventPoPUp:
		if w.Deploy.PoP(ev.PoP) == nil {
			w.overlayMu.Unlock()
			return fmt.Errorf("netsim: unknown PoP %d", ev.PoP)
		}
		if w.popDownF[ev.PoP] {
			w.popDownF[ev.PoP] = false
			w.popDownN--
			for _, id := range w.Deploy.PeeringsAt(ev.PoP) {
				if !w.ingressDownLocked(id) {
					cameUp = append(cameUp, id)
				}
			}
		}
	case EventLatencySpike:
		if w.Deploy.Peering(ev.Ingress) == nil {
			w.overlayMu.Unlock()
			return fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		if ev.Ms > 0 {
			w.spikeMsF[ev.Ingress] = ev.Ms
		} else {
			w.spikeMsF[ev.Ingress] = 0
		}
	case EventProbeLoss:
		if w.Deploy.Peering(ev.Ingress) == nil {
			w.overlayMu.Unlock()
			return fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		pct := ev.Pct
		if pct > 100 {
			pct = 100
		}
		if pct < 0 {
			pct = 0
		}
		w.probeLossF[ev.Ingress] = pct
	case EventPrefFlip:
		if w.Deploy.Peering(ev.Ingress) == nil {
			w.overlayMu.Unlock()
			return fmt.Errorf("netsim: unknown peering %d", ev.Ingress)
		}
		if !w.Graph.Has(ev.AS) {
			w.overlayMu.Unlock()
			return fmt.Errorf("netsim: unknown AS %v", ev.AS)
		}
		w.prefFlips[prefKey{as: ev.AS, ing: ev.Ingress}]++
	default:
		w.overlayMu.Unlock()
		return fmt.Errorf("netsim: unknown event kind %v", ev.Kind)
	}
	w.eventSeq++
	ev.Seq = w.eventSeq
	w.overlayMu.Unlock()

	// Precise cache invalidation (see the package comment above).
	if len(wentDown) > 0 {
		w.invalidateBestForDown(wentDown)
	}
	if len(cameUp) > 0 {
		w.invalidateBestForUp(cameUp)
	}
	if ev.Kind == EventPrefFlip {
		if ai, ok := w.idx.ID(ev.AS); ok {
			w.prefMu.Lock()
			if row := w.prefRows[ai]; row != nil && !math.IsNaN(row[ev.Ingress]) {
				row[ev.Ingress] = math.NaN()
				w.prefCount--
				w.obs.prefInval.Inc()
			}
			w.prefMu.Unlock()
		}
		w.dropResolveContaining(ev.AS, ev.Ingress)
	}

	w.notify(ev)
	return nil
}

// ingressDownLocked reports down-state; caller holds overlayMu (read or
// write). Unknown ingresses are never down.
func (w *World) ingressDownLocked(id bgp.IngressID) bool {
	if !w.knownIngress(id) {
		return false
	}
	return w.peeringDownF[id] || w.popDownF[w.popOfIng[id]]
}

// IngressDown reports whether a peering is currently failed, directly or
// through a PoP outage.
func (w *World) IngressDown(id bgp.IngressID) bool {
	w.overlayMu.RLock()
	defer w.overlayMu.RUnlock()
	return w.ingressDownLocked(id)
}

// latencySpikeMs returns the transient latency spike on an ingress (0
// when none).
func (w *World) latencySpikeMs(id bgp.IngressID) float64 {
	if !w.knownIngress(id) {
		return 0
	}
	w.overlayMu.RLock()
	defer w.overlayMu.RUnlock()
	return w.spikeMsF[id]
}

// LiveIngresses returns the subset of ids that are not failed, in input
// order, as a fresh slice.
func (w *World) LiveIngresses(ids []bgp.IngressID) []bgp.IngressID {
	out := make([]bgp.IngressID, 0, len(ids))
	w.overlayMu.RLock()
	defer w.overlayMu.RUnlock()
	for _, id := range ids {
		if !w.ingressDownLocked(id) {
			out = append(out, id)
		}
	}
	return out
}

// filterLive drops failed peerings from sorted in place (sorted must be
// caller-owned, e.g. ResolveIngress's canonical copy).
func (w *World) filterLive(sorted []bgp.IngressID) []bgp.IngressID {
	w.overlayMu.RLock()
	defer w.overlayMu.RUnlock()
	if w.peeringDownN == 0 && w.popDownN == 0 {
		return sorted
	}
	live := sorted[:0]
	for _, id := range sorted {
		if !w.ingressDownLocked(id) {
			live = append(live, id)
		}
	}
	return live
}

// prefFlipCount returns how many times the (AS, ingress) hidden
// preference has been flipped.
func (w *World) prefFlipCount(k prefKey) uint64 {
	w.overlayMu.RLock()
	defer w.overlayMu.RUnlock()
	return w.prefFlips[k]
}

// invalidateBestForDown drops BestIngressLatency memo entries whose
// cached winner just failed; entries won by other ingresses are still
// correct (removing a losing candidate cannot change a minimum).
func (w *World) invalidateBestForDown(ids []bgp.IngressID) {
	w.polMu.Lock()
	for _, row := range w.bestRows {
		for m := range row {
			v := &row[m]
			if !v.set || v.err != nil {
				continue
			}
			for _, id := range ids {
				if v.ing == id {
					*v = bestVal{}
					break
				}
			}
		}
	}
	w.polMu.Unlock()
}

// invalidateBestForUp drops BestIngressLatency memo entries a recovered
// ingress could now win: the ingress is policy-compliant for the entry's
// AS and its base latency at least ties the cached best (or the entry
// previously had no live compliant ingress at all).
func (w *World) invalidateBestForUp(ids []bgp.IngressID) {
	type slot struct {
		ai int32
		mo int32
		v  bestVal
	}
	w.polMu.Lock()
	var live []slot
	for ai, row := range w.bestRows {
		for m := range row {
			if row[m].set {
				live = append(live, slot{ai: int32(ai), mo: int32(m), v: row[m]})
			}
		}
	}
	w.polMu.Unlock()

	var stale []slot
	for _, s := range live {
		asn := w.idx.ASN(s.ai)
		metro := w.metroCodes[s.mo]
		pc, err := w.CompliantIngressIDs(asn)
		if err != nil {
			stale = append(stale, s)
			continue
		}
		for _, id := range ids {
			if !containsIngress(pc, id) {
				continue
			}
			if s.v.err != nil {
				stale = append(stale, s)
				break
			}
			b, err := w.BaseLatencyMs(asn, metro, id)
			if err != nil || b < s.v.ms || (b == s.v.ms && id < s.v.ing) {
				stale = append(stale, s)
				break
			}
		}
	}
	if len(stale) == 0 {
		return
	}
	w.polMu.Lock()
	for _, s := range stale {
		w.bestRows[s.ai][s.mo] = bestVal{}
	}
	w.polMu.Unlock()
}

// dropResolveContaining removes propagation-cache entries whose peering
// set contains the given ingress — the only entries a preference flip
// involving that ingress can affect. Entries carry their exact sorted
// sets, so containment is one binary search each.
//
// Dropped entries are not discarded: each is still an exact propagation
// of its injection set under the pre-flip tie-breaker, so it moves to
// the stale delta-base pool tagged with the flipped AS. Re-resolving
// the same peering set then finds a zero-symdiff base and repairs it
// with PropagateDelta seeded at that single AS — the flip's catchment
// cone — instead of re-propagating the whole graph. Stale bases that
// already contain the ingress accumulate the flip in their tag list.
func (w *World) dropResolveContaining(as topology.ASN, id bgp.IngressID) {
	dropped := 0
	w.resolveMu.Lock()
	for h, bucket := range w.resolveCache {
		kept := bucket[:0]
		for _, e := range bucket {
			if containsIngress(e.ids, id) {
				dropped++
				if e.done.Load() && e.err == nil && e.res != nil {
					w.pushStaleBaseLocked(staleBase{
						day:   e.day,
						ids:   e.ids,
						res:   e.res,
						flips: []topology.ASN{as},
					})
				}
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			delete(w.resolveCache, h)
		} else {
			w.resolveCache[h] = kept
		}
	}
	for i := range w.staleBases {
		sb := &w.staleBases[i]
		if containsIngress(sb.ids, id) && !slices.Contains(sb.flips, as) {
			sb.flips = append(sb.flips, as)
		}
	}
	w.resolveCount -= dropped
	w.resolveMu.Unlock()
	w.obs.resolveInval.Add(uint64(dropped))
}
