// Package measurement reproduces the paper's measurement methodology
// (§5.1.1, Appendices B and C): a RIPE-Atlas-like probe fleet hosted in
// a subset of user groups, per-ingress measurement targets with
// geolocation uncertainty, ping-based latency measurement (min of 7),
// and extrapolation of measured improvements to unprobed UGs.
package measurement

import (
	"math"
	"sort"
	"sync"

	"painter/internal/bgp"
	"painter/internal/geo"
	"painter/internal/netsim"
	"painter/internal/stats"
	"painter/internal/usergroup"
)

// The measurement methodology, at the paper's choices.
const (
	// probeTrafficCoverage is the fraction of total traffic volume whose
	// UGs host probes (the paper: RIPE Atlas covers ~47% of Azure
	// volume).
	probeTrafficCoverage = 0.47
	// geoPrecisionKm is GP: the maximum admissible target geolocation
	// uncertainty (the paper settles on 450 km).
	geoPrecisionKm = 450
	// pingCount is how many pings are taken per measurement (min is
	// kept; the paper uses 7).
	pingCount = 7
	// extrapolateRadiusKm / extrapolateAnycastMs are Appendix C's
	// neighbor-probe criteria (500 km, 10 ms).
	extrapolateRadiusKm  = 500
	extrapolateAnycastMs = 10
	// pingJitterMs scales per-ping noise.
	pingJitterMs = 2.0
)

// System is a materialized measurement system over one world + UG set.
type System struct {
	world *netsim.World
	ugs   *usergroup.Set

	probes map[usergroup.ID]bool
	// targetUncKm is each ingress's intrinsic target geolocation
	// uncertainty; math.Inf(1) means no target could be found at all.
	targetUncKm map[bgp.IngressID]float64
	// anycastMs caches each UG's measured anycast latency.
	anycastMs map[usergroup.ID]float64

	rng *randSource
}

// randSource provides deterministic per-key noise draws.
type randSource struct{ seed uint64 }

func (r *randSource) unit(parts ...uint64) float64 {
	h := mix(r.seed ^ 0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = mix(h ^ mix(p+0x9e3779b97f4a7c15))
	}
	return float64(h>>11) / float64(1<<53)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSystem builds the measurement system: chooses probe-hosting UGs by
// traffic weight until the coverage target is met, assigns each ingress
// a target with intrinsic geolocation uncertainty, and measures anycast
// latencies for every UG. seed draws the probe placement, the targets'
// uncertainty and the ping noise.
func NewSystem(w *netsim.World, ugs *usergroup.Set, seed int64) (*System, error) {
	s := &System{
		world:       w,
		ugs:         ugs,
		probes:      make(map[usergroup.ID]bool),
		targetUncKm: make(map[bgp.IngressID]float64),
		anycastMs:   make(map[usergroup.ID]float64),
		rng:         &randSource{seed: uint64(seed)},
	}

	// Probe placement: descending traffic weight with per-UG jitter so
	// placement is not purely deterministic by rank (Atlas hosts are
	// biased toward large networks but not perfectly so).
	type wug struct {
		id usergroup.ID
		w  float64
	}
	order := make([]wug, 0, ugs.Len())
	for _, u := range ugs.UGs {
		jitter := 0.5 + s.rng.unit(1, uint64(u.ID))
		order = append(order, wug{u.ID, u.Weight * jitter})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].w != order[j].w {
			return order[i].w > order[j].w
		}
		return order[i].id < order[j].id
	})
	var covered float64
	total := ugs.TotalWeight()
	for _, o := range order {
		if covered >= probeTrafficCoverage*total {
			break
		}
		s.probes[o.id] = true
		covered += ugs.Get(o.id).Weight
	}

	// Target geolocation: a mixture distribution with a knee near 400 km
	// (Appendix B, Fig. 12a): interface addresses give precise targets
	// for a minority; crawled hints locate most targets to a few hundred
	// km; a tail is effectively unlocatable.
	for _, ing := range w.Deploy.AllPeeringIDs() {
		u := s.rng.unit(2, uint64(ing))
		var unc float64
		switch {
		case u < 0.25: // interface address in peer space: precise
			unc = 10 + 140*s.rng.unit(3, uint64(ing))
		case u < 0.85: // IPMap/Maxmind/RDNS hints
			unc = 150 + 350*s.rng.unit(4, uint64(ing))
		case u < 0.97: // weakly located
			unc = 500 + 1000*s.rng.unit(5, uint64(ing))
		default: // no usable target
			unc = math.Inf(1)
		}
		s.targetUncKm[ing] = unc
	}

	// Anycast latency: measured for every UG by pinging the anycast
	// address (no target-geolocation issues: the prefix is the cloud's).
	err := w.Land(w.Deploy.AllPeeringIDs(), ugs.UGs, nil, func(i int, ing bgp.IngressID, ms float64) {
		if ing != bgp.InvalidIngress {
			s.anycastMs[ugs.UGs[i].ID] = s.minPing(ugs.UGs[i], ing, ms, 6)
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// minPing simulates pingCount pings over a path of latency base and
// returns the minimum RTT.
func (s *System) minPing(u usergroup.UG, ing bgp.IngressID, base float64, dom uint64) float64 {
	best := math.Inf(1)
	for i := 0; i < pingCount; i++ {
		ms := base + pingJitterMs*s.rng.unit(dom, uint64(u.ID), uint64(ing), uint64(i))
		if ms < best {
			best = ms
		}
	}
	return best
}

// covers reports whether the ingress has a target admissible at the
// configured geo-precision.
func (s *System) covers(ing bgp.IngressID) bool {
	return s.targetUncKm[ing] <= geoPrecisionKm
}

// measuredMs returns the estimated latency from a probe-hosting UG
// through an ingress, using the ingress's geolocated target as a stand-
// in (Appendix B): true path latency plus an error that grows with the
// target's geolocation uncertainty. ok=false when the UG has no probe or
// the ingress has no admissible target.
func (s *System) measuredMs(u usergroup.UG, ing bgp.IngressID) (float64, bool) {
	if !s.probes[u.ID] || !s.covers(ing) {
		return 0, false
	}
	base, err := s.world.LatencyMs(u.ASN, u.Metro, ing)
	if err != nil {
		return 0, false
	}
	ms := s.minPing(u, ing, base, 7)
	// Geolocation error: the target sits up to unc km from the true
	// ingress PoP; the latency estimate is off by at most the fiber RTT
	// across that distance. Signed, centered on zero.
	unc := s.targetUncKm[ing]
	errMs := geo.KmToMinRTTMs(unc) * (s.rng.unit(8, uint64(u.ID), uint64(ing)) - 0.5)
	est := ms + errMs
	if est < 0.1 {
		est = 0.1
	}
	return est, true
}

// Estimator returns the full Appendix B+C estimator for the
// orchestrator: direct (noisy) measurements for probe-hosting UGs, and
// improvements extrapolated from nearby, similar-anycast probes for the
// rest. The returned function is deterministic.
func (s *System) Estimator() func(u usergroup.UG, ing bgp.IngressID) (float64, bool) {
	// Precompute per-probe improvement pools for extrapolation.
	type probeInfo struct {
		ug      usergroup.UG
		anycast float64
	}
	var probes []probeInfo
	for _, u := range s.ugs.UGs {
		if s.probes[u.ID] {
			if a, ok := s.anycastMs[u.ID]; ok {
				probes = append(probes, probeInfo{u, a})
			}
		}
	}
	improvementPool := func(target usergroup.UG, targetAnycast float64) []float64 {
		var pool []float64
		for _, p := range probes {
			if geo.DistanceKm(target.Coord, p.ug.Coord) > extrapolateRadiusKm {
				continue
			}
			if math.Abs(p.anycast-targetAnycast) > extrapolateAnycastMs {
				continue
			}
			pc, err := s.world.CompliantIngressIDs(p.ug.ASN)
			if err != nil {
				continue
			}
			for _, ing := range pc {
				if m, ok := s.measuredMs(p.ug, ing); ok {
					pool = append(pool, p.anycast-m) // improvement (can be negative)
				}
			}
		}
		sort.Float64s(pool)
		return pool
	}
	// The orchestrator builds its per-UG state on a worker pool, so the
	// estimator is called concurrently; pools are computed outside the
	// lock (they are a pure function of the UG).
	var poolMu sync.Mutex
	poolCache := make(map[usergroup.ID][]float64)

	return func(u usergroup.UG, ing bgp.IngressID) (float64, bool) {
		if s.probes[u.ID] {
			return s.measuredMs(u, ing)
		}
		anycast, ok := s.anycastMs[u.ID]
		if !ok {
			return 0, false
		}
		poolMu.Lock()
		pool, ok := poolCache[u.ID]
		poolMu.Unlock()
		if !ok {
			pool = improvementPool(u, anycast)
			poolMu.Lock()
			poolCache[u.ID] = pool
			poolMu.Unlock()
		}
		if len(pool) == 0 {
			return 0, false
		}
		// Draw deterministically per (UG, ingress) from the pool.
		idx := int(s.rng.unit(9, uint64(u.ID), uint64(ing)) * float64(len(pool)))
		if idx >= len(pool) {
			idx = len(pool) - 1
		}
		est := anycast - pool[idx]
		if est < 0.1 {
			est = 0.1
		}
		return est, true
	}
}

// CoverageAt computes the Fig. 12a metric at a given admissible
// uncertainty: the traffic-weighted fraction of useful policy-compliant
// (UG, ingress) tuples whose ingress has a target located within maxKm.
// Tuples unlikely to help (anycast already below the speed-of-light
// bound to the ingress's PoP) are excluded, and each UG's weight is
// split evenly across its tuples — both per Appendix B. When
// restrictToProbes is set, only probe-hosting UGs are counted
// (Fig. 12a's second line).
func (s *System) CoverageAt(maxKm float64, restrictToProbes bool) (float64, error) {
	var num, den float64
	for _, u := range s.ugs.UGs {
		if restrictToProbes && !s.probes[u.ID] {
			continue
		}
		anycast, ok := s.anycastMs[u.ID]
		if !ok {
			continue
		}
		pc, err := s.world.CompliantIngressIDs(u.ASN)
		if err != nil {
			return 0, err
		}
		var useful []bgp.IngressID
		for _, ing := range pc {
			pop, err := s.world.Deploy.PoPOfPeering(ing)
			if err != nil {
				return 0, err
			}
			// Exclude tuples that cannot beat anycast even at light speed.
			if anycast <= geo.KmToMinRTTMs(geo.DistanceKm(u.Coord, pop.Coord)) {
				continue
			}
			useful = append(useful, ing)
		}
		if len(useful) == 0 {
			continue
		}
		share := u.Weight / float64(len(useful))
		for _, ing := range useful {
			den += share
			if s.targetUncKm[ing] <= maxKm {
				num += share
			}
		}
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}

// MedianAbsErrorAt computes the Fig. 12b metric: the median absolute
// difference between estimated and true latency over probe-measurable
// tuples whose target uncertainty is at most maxKm (bucketed by the
// caller sweeping maxKm).
func (s *System) MedianAbsErrorAt(loKm, hiKm float64) (float64, error) {
	var errs []float64
	for _, u := range s.ugs.UGs {
		if !s.probes[u.ID] {
			continue
		}
		pc, err := s.world.CompliantIngressIDs(u.ASN)
		if err != nil {
			return 0, err
		}
		for _, ing := range pc {
			unc := s.targetUncKm[ing]
			if unc < loKm || unc > hiKm {
				continue
			}
			truth, err := s.world.LatencyMs(u.ASN, u.Metro, ing)
			if err != nil {
				return 0, err
			}
			// Bypass Covered() gating: we're asking what the error WOULD
			// be at this uncertainty bucket.
			ms := s.minPing(u, ing, truth, 7)
			errMs := geo.KmToMinRTTMs(unc) * (s.rng.unit(8, uint64(u.ID), uint64(ing)) - 0.5)
			errs = append(errs, math.Abs(ms+errMs-truth))
		}
	}
	if len(errs) == 0 {
		return 0, nil
	}
	return stats.Median(errs)
}
