package core

// Continuous re-solve controller: the event-driven face of the
// Advertisement Orchestrator. PAINTER is a continuously operating
// system — peerings fail and recover, catchments shift, latencies spike
// — and recomputing the whole configuration on every event wastes the
// work the greedy allocator already did for the untouched prefixes. The
// Controller subscribes to a netsim.World's event stream, maps each
// event to the dirty set of prefixes it can actually change, and runs a
// warm-start repair (repairConfig) that regrows only those, falling
// back to a full re-solve — the repair of the empty configuration — when
// the dirty fraction crosses a threshold.
//
// Dirty-set rules (derived from what each event kind can change in the
// offline model — estimates come from steady-state base latencies and
// never move; anycast values and route selections do):
//
//   - Any routing event (peering/PoP down/up, pref flip) dirties every
//     prefix containing a touched ingress: the prefix's resolution can
//     change, so its membership must be reconsidered.
//   - After any routing or latency event the controller re-resolves the
//     anycast prefix (one cached query) and refreshes every state's
//     anycast latency. States whose anycast moved — or whose AS lost or
//     regained anycast coverage entirely (the dark mask) — dirty every
//     prefix they can use: their Eq. (1) baseline changed, so every
//     placement decision involving them is suspect.
//   - A recovered ingress additionally dirties the prefixes usable by
//     states it could now improve (estimate below their current value):
//     the greedy loop might want it somewhere it could not go before.
//   - Latency spikes change no placement input except anycast (the
//     model's estimates deliberately stay at base latencies, exactly as
//     a cold solve's inputs would), so they dirty only via the anycast
//     rule. Probe loss is Traffic Manager metadata: never dirty.
//
// Concurrency contract: the World forbids ApplyEvent concurrent with
// queries, so the subscription hook only enqueues; all model refresh and
// repair work happens in Sync, which the driver calls between query
// waves (chaos onTick, the painterd tick loop).

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"painter/internal/bgp"
	"painter/internal/netsim"
	"painter/internal/obs/span"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// ControllerParams configures the continuous controller.
type ControllerParams struct {
	// Solver parameterizes the underlying orchestrator (budget, D_reuse,
	// Obs registry, Trace).
	Solver Params
}

// fullSolveFraction is the dirty-prefix fraction above which Sync
// re-solves from scratch: repairing more than half the prefixes does
// roughly a full solve's work anyway, minus the tail-growth savings, so
// past that point pay for the cold solve's global ordering instead.
const fullSolveFraction = 0.5

// SyncReport describes what one Sync did.
type SyncReport struct {
	// Events is how many queued events this sync consumed.
	Events int
	// Dirty holds the dirty prefix indices into the pre-repair config.
	Dirty []int
	// DirtyFraction is len(Dirty)/max(1, prefixes before repair).
	DirtyFraction float64
	// AnycastChanged counts UG states whose anycast latency or coverage
	// changed.
	AnycastChanged int
	// FullSolve reports that the sync recomputed from scratch.
	FullSolve bool
	// Repaired reports that the sync ran the warm-start repair path.
	Repaired bool
}

// Controller maintains an advertisement configuration against a live
// world, incrementally repairing it as events arrive.
type Controller struct {
	w *netsim.World
	o *Orchestrator

	dark []bool
	cfg  Config

	// Incremental anycast state: the retained anycast Result (and the
	// day it was resolved on) lets refreshAnycast re-examine only the
	// states whose selection moved (AnycastShift's changed-AS set — the
	// delta engine's catchment cone) or whose current ingress was
	// latency-touched, instead of recomputing every state's latency on
	// every sync. anyIng is each state's currently selected anycast
	// ingress (InvalidIngress when dark); byAS indexes states by ASN.
	anyRes *bgp.Result
	anyDay int
	anyIng []bgp.IngressID
	byAS   map[topology.ASN][]int32

	mu      sync.Mutex
	pending []netsim.Event
	cancel  func()

	rm repairMetrics
}

// NewController builds orchestrator state from the world's current view
// (compliance, base-latency estimates, anycast baselines), computes the
// initial configuration over live peerings, and subscribes to the
// world's events. Call Sync between query waves to consume them, and
// Stop to unsubscribe. UGs without an anycast route at construction are
// dropped (as in SimInputs); UGs losing coverage later go dark and
// return when their routes do.
func NewController(w *netsim.World, ugs *usergroup.Set, p ControllerParams) (*Controller, error) {
	in, _, err := SimInputs(w, ugs, nil)
	if err != nil {
		return nil, fmt.Errorf("core: controller inputs: %w", err)
	}
	o, err := New(in, nil, p.Solver)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		w:      w,
		o:      o,
		dark:   make([]bool, len(o.states)),
		anyIng: make([]bgp.IngressID, len(o.states)),
		byAS:   make(map[topology.ASN][]int32, len(o.states)),
		rm:     newRepairMetrics(p.Solver.Obs),
	}
	for i, st := range o.states {
		c.anyIng[i] = bgp.InvalidIngress
		c.byAS[st.ug.ASN] = append(c.byAS[st.ug.ASN], int32(i))
	}
	c.cfg = o.computeConfig(nil, c.live, c.dark)
	c.cancel = w.Subscribe(c.enqueue)
	return c, nil
}

// live reports whether a peering is currently up in the world.
func (c *Controller) live(id bgp.IngressID) bool { return !c.w.IngressDown(id) }

func (c *Controller) enqueue(ev netsim.Event) {
	c.mu.Lock()
	c.pending = append(c.pending, ev)
	c.mu.Unlock()
}

// Config returns a copy of the current configuration.
func (c *Controller) Config() Config { return c.cfg.Clone() }

// Orchestrator exposes the underlying solver (benefit prediction against
// the controller's refreshed model).
func (c *Controller) Orchestrator() *Orchestrator { return c.o }

// Budget returns the current prefix budget.
func (c *Controller) Budget() int { return c.o.params.PrefixBudget }

// SetBudget changes the prefix budget and immediately recomputes the
// configuration from scratch under the new budget, returning it. A
// budget change moves the greedy allocator's stopping point, not its
// per-prefix inputs, so warm-reuse caches stay valid. Like Sync, it
// must be called from the same cadence that applies world events —
// never concurrently with ApplyEvent/SetDay or another Sync.
func (c *Controller) SetBudget(budget int) (Config, error) {
	if budget < 1 {
		return Config{}, fmt.Errorf("core: SetBudget: budget must be >= 1, got %d", budget)
	}
	if budget == c.o.params.PrefixBudget {
		return c.cfg.Clone(), nil
	}
	c.o.params.PrefixBudget = budget
	c.cfg = c.o.computeConfig(nil, c.live, c.dark)
	return c.cfg.Clone(), nil
}

// Stop unsubscribes from the world. Idempotent.
func (c *Controller) Stop() {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
}

// Sync drains queued events, refreshes the model, recomputes whatever
// they dirtied, and returns the (possibly unchanged) configuration.
// Must not run concurrently with ApplyEvent/SetDay on the world — call
// it from the same cadence that applies events.
func (c *Controller) Sync() (Config, SyncReport, error) {
	c.mu.Lock()
	evs := c.pending
	c.pending = nil
	c.mu.Unlock()

	rep := SyncReport{Events: len(evs)}
	if len(evs) == 0 {
		return c.cfg.Clone(), rep, nil
	}
	c.rm.events.Add(uint64(len(evs)))

	sp := c.o.params.Trace.StartRoot("core.repair",
		span.A("events", strconv.Itoa(len(evs))),
		span.A("first_event", evs[0].String()))
	defer sp.Finish()

	touched, cameUp, latTouched, model, err := c.classify(evs)
	if err != nil {
		return Config{}, rep, err
	}
	if !model {
		// Probe loss only: Traffic Manager metadata, no placement input
		// changed.
		c.rm.noops.Inc()
		sp.SetAttr("outcome", "traffic-only")
		return c.cfg.Clone(), rep, nil
	}

	var start time.Time
	if c.rm.on() {
		start = time.Now()
	}

	changed, err := c.refreshAnycast(latTouched)
	if err != nil {
		return Config{}, rep, err
	}
	rep.AnycastChanged = len(changed)

	rep.Dirty = c.dirtyPrefixes(touched, cameUp, changed)
	n := len(c.cfg.Prefixes)
	rep.DirtyFraction = float64(len(rep.Dirty)) / math.Max(1, float64(n))
	c.rm.dirtyFraction.Set(rep.DirtyFraction)
	sp.SetAttr("dirty", strconv.Itoa(len(rep.Dirty)))

	switch {
	case len(rep.Dirty) == 0 && n >= c.o.params.PrefixBudget:
		// Nothing dirty and no free budget: config stands.
		c.rm.noops.Inc()
		sp.SetAttr("outcome", "clean")
	case n == 0 || rep.DirtyFraction > fullSolveFraction:
		rep.FullSolve = true
		c.cfg = c.o.computeConfig(sp, c.live, c.dark)
		c.rm.fullSolves.Inc()
		sp.SetAttr("outcome", "full-solve")
	default:
		rep.Repaired = true
		c.cfg = c.o.repairConfig(sp, c.cfg, rep.Dirty, c.live, c.dark)
		c.rm.repairs.Inc()
		sp.SetAttr("outcome", "repair")
	}
	if c.rm.on() && (rep.FullSolve || rep.Repaired) {
		c.rm.repairSeconds.Observe(time.Since(start).Seconds())
	}
	return c.cfg.Clone(), rep, nil
}

// classify folds the batch of events into the inputs of the dirty rules:
// the touched routing ingresses, the subset that came (back) up, the
// latency-only touched ingresses (spikes — they can move a state's
// anycast value without moving its route), and whether anything at all
// can move the placement model.
func (c *Controller) classify(evs []netsim.Event) (touched, cameUp, latTouched map[bgp.IngressID]bool, model bool, err error) {
	touched = make(map[bgp.IngressID]bool)
	cameUp = make(map[bgp.IngressID]bool)
	latTouched = make(map[bgp.IngressID]bool)
	for _, ev := range evs {
		imp, err := c.w.EventImpact(ev)
		if err != nil {
			return nil, nil, nil, false, fmt.Errorf("core: classify %v: %w", ev, err)
		}
		if imp.TrafficOnly {
			continue
		}
		model = true
		if imp.Routing {
			up := ev.Kind == netsim.EventPeeringUp || ev.Kind == netsim.EventPoPUp
			for _, id := range imp.Ingresses {
				touched[id] = true
				if up && c.live(id) {
					cameUp[id] = true
				}
			}
		} else if imp.Latency {
			for _, id := range imp.Ingresses {
				latTouched[id] = true
			}
		}
	}
	return touched, cameUp, latTouched, model, nil
}

// refreshAnycast re-resolves the anycast prefix and updates state
// baselines and the dark mask, returning the indices of states whose
// value changed. With a retained previous Result (and an unchanged
// day), only the states that can have moved are re-examined: those
// whose AS is in the resolve diff, plus those whose current anycast
// ingress took a latency-only event. The first sync — and any sync
// after a day change or an error — falls back to refreshing every
// state, which is exactly the pre-incremental behaviour.
func (c *Controller) refreshAnycast(latTouched map[bgp.IngressID]bool) ([]int, error) {
	res, moved, err := c.w.AnycastShift(c.anyRes)
	if err != nil {
		c.anyRes = nil
		return nil, fmt.Errorf("core: refresh anycast: %w", err)
	}
	day := c.w.Day()
	full := c.anyRes == nil || day != c.anyDay

	var changed []int
	refresh := func(i int) error {
		st := c.o.states[i]
		r, ok := res.Route(st.ug.ASN)
		if !ok {
			c.anyIng[i] = bgp.InvalidIngress
			if !c.dark[i] {
				c.dark[i] = true
				changed = append(changed, i)
			}
			return nil
		}
		ms, err := c.w.LatencyMs(st.ug.ASN, st.ug.Metro, r.Ingress)
		if err != nil {
			return fmt.Errorf("core: refresh anycast UG %d: %w", st.ug.ID, err)
		}
		if c.dark[i] || ms != st.anycast {
			changed = append(changed, i)
		}
		c.dark[i] = false
		st.anycast = ms
		c.anyIng[i] = r.Ingress
		return nil
	}
	if full {
		for i := range c.o.states {
			if err := refresh(i); err != nil {
				c.anyRes = nil
				return nil, err
			}
		}
	} else {
		mark := make([]bool, len(c.o.states))
		for _, as := range moved {
			for _, i := range c.byAS[as] {
				mark[i] = true
			}
		}
		if len(latTouched) > 0 {
			for i, ing := range c.anyIng {
				if latTouched[ing] {
					mark[i] = true
				}
			}
		}
		// Ascending order keeps changed identical to a full refresh.
		for i, m := range mark {
			if !m {
				continue
			}
			if err := refresh(i); err != nil {
				c.anyRes = nil
				return nil, err
			}
		}
	}
	c.anyRes, c.anyDay = res, day
	return changed, nil
}

// dirtyPrefixes applies the dirty rules and returns the sorted dirty
// prefix indices.
func (c *Controller) dirtyPrefixes(touched, cameUp map[bgp.IngressID]bool, changed []int) []int {
	dirty := make(map[int]bool)

	// Rule 1: prefixes containing a touched routing ingress.
	for pi, S := range c.cfg.Prefixes {
		for _, ing := range S {
			if touched[ing] {
				dirty[pi] = true
				break
			}
		}
	}

	// Rule 2: prefixes usable by states whose anycast baseline changed.
	suspect := append([]int(nil), changed...)

	// Rule 3: states a recovered ingress could improve.
	if len(cameUp) > 0 {
		cur := c.stateValues()
		for up := range cameUp {
			for _, i := range c.o.statesFor(up) {
				if c.dark[i] {
					continue
				}
				st := c.o.states[i]
				if est, ok := st.estOf(up); ok && est < cur[i] {
					suspect = append(suspect, int(i))
				}
			}
		}
	}
	for pi, S := range c.cfg.Prefixes {
		if dirty[pi] {
			continue
		}
		// Usability of S per state is model-only: read it off the cached
		// contribution vector (NaN = unusable).
		vec := c.o.frozenVec(S)
		for _, i := range suspect {
			if !c.dark[i] && !math.IsNaN(vec[i]) {
				dirty[pi] = true
				break
			}
		}
	}

	out := make([]int, 0, len(dirty))
	for pi := range dirty {
		out = append(out, pi)
	}
	sort.Ints(out)
	return out
}

// stateValues returns each non-dark state's current modeled value: the
// minimum of its anycast baseline and its expectation for every prefix,
// folded from the cached contribution vectors (strict <, so the NaN
// sentinel for "unusable" loses).
func (c *Controller) stateValues() []float64 {
	vals := make([]float64, len(c.o.states))
	vecs := make([][]float64, len(c.cfg.Prefixes))
	for pi, S := range c.cfg.Prefixes {
		vecs[pi] = c.o.frozenVec(S)
	}
	for i, st := range c.o.states {
		vals[i] = st.anycast
		if c.dark[i] {
			continue
		}
		for _, vec := range vecs {
			if vec[i] < vals[i] {
				vals[i] = vec[i]
			}
		}
	}
	return vals
}
