package netsim

import (
	"fmt"
	"sync"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/stats"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// Catchment describes where anycast traffic lands and how inflated the
// landing is — the diagnostic view behind the paper's motivation (§1,
// §2.2: anycast can inflate paths; "unpredictable mappings from clients
// to PoPs").
type Catchment struct {
	// PoPShare is each PoP's share of anycast traffic volume.
	PoPShare map[cloud.PoPID]float64
	// InflationKm is, per UG, how much farther (km) the anycast landing
	// PoP is than the UG's nearest policy-compliant PoP.
	InflationKm *stats.CDF
	// InflationMs is the latency headroom: anycast latency minus the
	// best policy-compliant ingress latency.
	InflationMs *stats.CDF
	// InflatedFrac is the traffic-weighted share landing >ThresholdKm
	// beyond the nearest compliant PoP.
	InflatedFrac float64
	// ThresholdKm is the inflation threshold used for InflatedFrac.
	ThresholdKm float64
	// UGs counted.
	UGs int
}

// ugCatchRow is one UG's retained catchment contribution: everything
// the catchment derives from the world for that UG. Rows depend only
// on the UG's selected anycast route and its best live compliant
// ingress, which is what lets CatchmentAnalyzer recompute just the rows
// an event can move.
type ugCatchRow struct {
	ok      bool // UG has an anycast route
	pop     cloud.PoPID
	extraKm float64
	extraMs float64
	hasMs   bool
}

// catchRow computes one UG's row given its selected anycast route (ok
// reports whether it has one).
func (w *World) catchRow(u usergroup.UG, r bgp.Route, ok bool) (ugCatchRow, error) {
	if !ok {
		return ugCatchRow{}, nil
	}
	pop, err := w.Deploy.PoPOfPeering(r.Ingress)
	if err != nil {
		return ugCatchRow{}, err
	}
	landKm := geo.DistanceKm(u.Coord, pop.Coord)
	// Nearest policy-compliant PoP (structural: liveness-independent).
	compliant, err := w.CompliantIngressIDs(u.ASN)
	if err != nil {
		return ugCatchRow{}, err
	}
	nearest := landKm
	for _, ing := range compliant {
		p, err := w.Deploy.PoPOfPeering(ing)
		if err != nil {
			return ugCatchRow{}, err
		}
		if d := geo.DistanceKm(u.Coord, p.Coord); d < nearest {
			nearest = d
		}
	}
	row := ugCatchRow{ok: true, pop: pop.ID, extraKm: landKm - nearest}
	anyMs, err := w.BaseLatencyMs(u.ASN, u.Metro, r.Ingress)
	if err != nil {
		return ugCatchRow{}, err
	}
	if bestMs, _, err := w.BestIngressLatency(u.ASN, u.Metro); err == nil {
		row.hasMs = true
		if extra := anyMs - bestMs; extra > 0 {
			row.extraMs = extra
		}
	}
	return row, nil
}

// assembleCatchment folds per-UG rows (in UG order) into the aggregate
// view.
func assembleCatchment(ugs *usergroup.Set, rows []ugCatchRow, thresholdKm float64) (*Catchment, error) {
	c := &Catchment{
		PoPShare:    make(map[cloud.PoPID]float64),
		ThresholdKm: thresholdKm,
	}
	var kms, ms []float64
	var totalW, inflatedW float64
	for i, u := range ugs.UGs {
		row := rows[i]
		if !row.ok {
			continue
		}
		c.PoPShare[row.pop] += u.Weight
		totalW += u.Weight
		kms = append(kms, row.extraKm)
		if row.extraKm > thresholdKm {
			inflatedW += u.Weight
		}
		if row.hasMs {
			ms = append(ms, row.extraMs)
		}
		c.UGs++
	}
	if c.UGs == 0 {
		return nil, fmt.Errorf("netsim: no UG has an anycast route")
	}
	if totalW > 0 {
		for id := range c.PoPShare {
			c.PoPShare[id] /= totalW
		}
		c.InflatedFrac = inflatedW / totalW
	}
	c.InflationKm = stats.NewCDF(kms)
	c.InflationMs = stats.NewCDF(ms)
	return c, nil
}

// CatchmentAnalyzer maintains a catchment incrementally across world
// events: it retains the previous anycast Result and per-UG rows, and
// each Update recomputes only the rows an intervening change can move —
// UGs whose anycast selection shifted (via AnycastShift's changed-AS
// set, i.e. the delta engine's catchment cone) plus UGs whose best
// compliant ingress may have changed because an ingress in their
// compliant set went down or came up. Equivalence with a fresh
// analyzeCatchment (the from-scratch test oracle) is pinned by the
// differential tests.
//
// Like the world's query methods it must not run concurrently with
// ApplyEvent/SetDay; Update itself is not safe for concurrent use.
type CatchmentAnalyzer struct {
	w           *World
	ugs         *usergroup.Set
	thresholdKm float64

	rows []ugCatchRow
	prev *bgp.Result
	byAS map[topology.ASN][]int32

	mu      sync.Mutex
	touched map[bgp.IngressID]bool // down/up since last Update

	cancel func()
}

// NewCatchmentAnalyzer subscribes to the world's events and returns an
// analyzer ready for its first Update (which computes every row).
// Callers must Close it to release the subscription.
func NewCatchmentAnalyzer(w *World, ugs *usergroup.Set, thresholdKm float64) *CatchmentAnalyzer {
	if thresholdKm <= 0 {
		thresholdKm = 1000
	}
	a := &CatchmentAnalyzer{
		w:           w,
		ugs:         ugs,
		thresholdKm: thresholdKm,
		rows:        make([]ugCatchRow, len(ugs.UGs)),
		byAS:        make(map[topology.ASN][]int32, len(ugs.UGs)),
		touched:     make(map[bgp.IngressID]bool),
	}
	for i, u := range ugs.UGs {
		a.byAS[u.ASN] = append(a.byAS[u.ASN], int32(i))
	}
	a.cancel = w.Subscribe(a.onEvent)
	return a
}

// Close releases the event subscription.
func (a *CatchmentAnalyzer) Close() {
	if a.cancel != nil {
		a.cancel()
		a.cancel = nil
	}
}

// onEvent records the ingresses whose liveness changed: those are the
// only changes that can move a row other than through the anycast
// selection itself (rows read BaseLatencyMs, so spikes and probe loss
// never touch them, and pref flips surface through the resolve diff).
func (a *CatchmentAnalyzer) onEvent(ev Event) {
	switch ev.Kind {
	case EventPeeringDown, EventPeeringUp:
		a.mu.Lock()
		a.touched[ev.Ingress] = true
		a.mu.Unlock()
	case EventPoPDown, EventPoPUp:
		a.mu.Lock()
		for _, id := range a.w.Deploy.PeeringsAt(ev.PoP) {
			a.touched[id] = true
		}
		a.mu.Unlock()
	}
}

// Update refreshes the retained rows against the current world state
// and returns the catchment. The first call (and any call after an
// error) computes every row; later calls recompute only the rows the
// intervening events can have moved.
func (a *CatchmentAnalyzer) Update() (*Catchment, error) {
	res, changed, err := a.w.AnycastShift(a.prev)
	if err != nil {
		a.prev = nil
		return nil, err
	}
	a.mu.Lock()
	touched := a.touched
	a.touched = make(map[bgp.IngressID]bool)
	a.mu.Unlock()

	full := a.prev == nil
	dirty := make([]bool, len(a.rows))
	if !full {
		for _, as := range changed {
			for _, i := range a.byAS[as] {
				dirty[i] = true
			}
		}
		if len(touched) > 0 {
			for i, u := range a.ugs.UGs {
				if dirty[i] {
					continue
				}
				row, err := a.w.CompliantIngressIDs(u.ASN)
				if err != nil {
					a.prev = nil
					return nil, err
				}
				for id := range touched {
					if containsIngress(row, id) {
						dirty[i] = true
						break
					}
				}
			}
		}
	}
	for i, u := range a.ugs.UGs {
		if !full && !dirty[i] {
			continue
		}
		r, ok := res.Route(u.ASN)
		if a.rows[i], err = a.w.catchRow(u, r, ok); err != nil {
			a.prev = nil
			return nil, err
		}
	}
	a.prev = res
	return assembleCatchment(a.ugs, a.rows, a.thresholdKm)
}
