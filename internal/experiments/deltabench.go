package experiments

// Delta-vs-full propagation microbenchmark for the BGP engine: a
// deterministic churn chain (peering withdrawals/re-announcements and
// tie-break preference flips) is applied to a full-deployment injection
// set, and every step is computed both ways — PropagateDelta from the
// previous settled Result, and a from-scratch PropagateResult. The two
// are asserted byte-identical per step (the same equivalence the
// differential suite pins), then timed; speedups are bucketed by the
// size of the changed-AS set the delta run reports, i.e. by how much of
// the catchment the event actually moved.

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"painter/internal/benchmeta"
	"painter/internal/bgp"
	"painter/internal/netsim"
	"painter/internal/stats"
	"painter/internal/topology"
)

// DeltaBenchConfig parameterizes the benchmark.
type DeltaBenchConfig struct {
	// Seed drives the event chain.
	Seed int64
	// Trials is the number of timed propagation steps (default 60).
	Trials int
	// Reps is how many times each propagation is re-run per trial, the
	// minimum duration winning (default 3; both engines are pure, so
	// repeats see identical inputs).
	Reps int
}

// DeltaBucket is one changed-set-size class of trials.
type DeltaBucket struct {
	Label         string  `json:"label"`
	Trials        int     `json:"trials"`
	DeltaMedianUs float64 `json:"delta_median_us"`
	FullMedianUs  float64 `json:"full_median_us"`
	MedianSpeedup float64 `json:"median_speedup"`
}

// DeltaBenchResult is the benchmark outcome; it marshals directly to
// BENCH_DELTA.json. Meta stays zero here (deterministic library code);
// cmd/painter-bench stamps it just before writing.
type DeltaBenchResult struct {
	benchmeta.Meta
	Scale    string `json:"scale"`
	Seed     int64  `json:"seed"`
	ASes     int    `json:"ases"`
	Peerings int    `json:"peerings"`
	Trials   int    `json:"trials"`

	Buckets []DeltaBucket `json:"buckets"`

	OverallDeltaMedianUs float64 `json:"overall_delta_median_us"`
	OverallFullMedianUs  float64 `json:"overall_full_median_us"`
	OverallMedianSpeedup float64 `json:"overall_median_speedup"`
}

// deltaBucketEdges classify a trial by |changed|: exclusive upper
// bounds, with the last bucket unbounded.
var deltaBucketEdges = []struct {
	label string
	max   int // inclusive; -1 = unbounded
}{
	{"0", 0},
	{"1-10", 10},
	{"11-100", 100},
	{"101-1000", 1000},
	{">1000", -1},
}

func deltaBucketOf(changed int) int {
	for i, b := range deltaBucketEdges {
		if b.max < 0 || changed <= b.max {
			return i
		}
	}
	return len(deltaBucketEdges) - 1
}

// RunDeltaBench runs the delta-vs-full propagation chain.
func RunDeltaBench(env *Env, cfg DeltaBenchConfig) (*DeltaBenchResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 60
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	// Private world: pref-flip trials mutate hidden preferences, and the
	// bench must not perturb an Env shared with other experiments.
	w, err := netsim.New(env.Graph, env.Deploy, env.Seed+2)
	if err != nil {
		return nil, err
	}
	ids := env.Deploy.AllPeeringIDs()
	ugs := env.AllUGs.UGs
	rng := stats.NewRand(cfg.Seed + 0xde17a)

	full := append([]bgp.IngressID(nil), ids...)
	inj, err := env.Deploy.Injections(full)
	if err != nil {
		return nil, err
	}
	tb := w.TieBreaker()
	prev, err := bgp.PropagateResult(env.Graph, inj, tb)
	if err != nil {
		return nil, err
	}

	res := &DeltaBenchResult{
		Scale: env.Scale.String(), Seed: cfg.Seed,
		ASes: env.Graph.Len(), Peerings: len(ids),
	}
	// held lists the peerings that actually win catchment under the full
	// announcement (ascending for determinism). Withdrawals are biased
	// toward these — withdrawing a peering nobody selected moves nothing
	// and would pile every trial into the "0" bucket.
	var held []bgp.IngressID
	{
		seen := map[bgp.IngressID]bool{}
		for _, r := range prev.Selections() {
			seen[r.Ingress] = true
		}
		for _, id := range ids {
			if seen[id] {
				held = append(held, id)
			}
		}
	}
	idPos := make(map[bgp.IngressID]int, len(ids))
	for k, id := range ids {
		idPos[id] = k
	}
	type sample struct {
		bucket          int
		deltaUs, fullUs float64
	}
	var samples []sample

	// Each step perturbs the injection set or the tie-breaker, then
	// chains: the delta result becomes the next step's base, so bases at
	// every catchment distance occur, not just one-off repairs of the
	// same snapshot.
	down := false // a withdrawal is outstanding; next step re-announces
	for t := 0; t < cfg.Trials; t++ {
		var stepInj []bgp.Injection
		var flipped []topology.ASN
		switch {
		case down:
			// Re-announce the withdrawn peerings: back to the full set.
			stepInj = inj
			down = false
		default:
			switch rng.Intn(3) {
			case 0:
				// Withdraw 1, 2, 4, or 8 peerings, mostly catchment
				// holders, so changed-set sizes span the buckets.
				n := 1 << rng.Intn(4)
				if n > len(ids)-1 {
					n = len(ids) - 1
				}
				omit := map[int]bool{}
				for len(omit) < n {
					var id bgp.IngressID
					if len(held) > 0 && rng.Intn(3) > 0 {
						id = held[rng.Intn(len(held))]
					} else {
						id = ids[rng.Intn(len(ids))]
					}
					omit[idPos[id]] = true
				}
				sub := make([]bgp.IngressID, 0, len(ids)-n)
				for k, id := range ids {
					if !omit[k] {
						sub = append(sub, id)
					}
				}
				stepInj, err = env.Deploy.Injections(sub)
				if err != nil {
					return nil, err
				}
				down = true
			case 1:
				// Flip one AS's hidden tie-break preference.
				as := ugs[rng.Intn(len(ugs))].ASN
				ev := netsim.Event{Kind: netsim.EventPrefFlip, AS: as, Ingress: ids[rng.Intn(len(ids))]}
				if err := w.ApplyEvent(ev); err != nil {
					return nil, err
				}
				stepInj = inj
				flipped = []topology.ASN{as}
			default:
				// No-op step: identical inputs, exercises the zero-work
				// fast path ("0" bucket).
				stepInj = inj
			}
		}

		var cur *bgp.Result
		var changed []topology.ASN
		deltaBest := time.Duration(1<<62 - 1)
		for r := 0; r < cfg.Reps; r++ {
			t0 := time.Now()
			cur, changed, err = bgp.PropagateDelta(prev, env.Graph, stepInj, flipped, tb)
			if d := time.Since(t0); d < deltaBest {
				deltaBest = d
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: delta bench trial %d: %w", t, err)
			}
		}
		var ref *bgp.Result
		fullBest := time.Duration(1<<62 - 1)
		for r := 0; r < cfg.Reps; r++ {
			t0 := time.Now()
			ref, err = bgp.PropagateResult(env.Graph, stepInj, tb)
			if d := time.Since(t0); d < fullBest {
				fullBest = d
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: delta bench trial %d full: %w", t, err)
			}
		}
		if !bytes.Equal(cur.Bytes(), ref.Bytes()) {
			return nil, fmt.Errorf("experiments: delta bench trial %d: delta and full results diverged", t)
		}

		samples = append(samples, sample{
			bucket:  deltaBucketOf(len(changed)),
			deltaUs: float64(deltaBest.Nanoseconds()) / 1e3,
			fullUs:  float64(fullBest.Nanoseconds()) / 1e3,
		})
		res.Trials++
		prev = cur
	}

	var allDelta, allFull, allSpeed []float64
	for bi, edge := range deltaBucketEdges {
		var dUs, fUs, sp []float64
		for _, s := range samples {
			if s.bucket != bi {
				continue
			}
			dUs = append(dUs, s.deltaUs)
			fUs = append(fUs, s.fullUs)
			sp = append(sp, s.fullUs/s.deltaUs)
		}
		if len(dUs) == 0 {
			continue
		}
		res.Buckets = append(res.Buckets, DeltaBucket{
			Label: edge.label, Trials: len(dUs),
			DeltaMedianUs: quantile(dUs, 0.5),
			FullMedianUs:  quantile(fUs, 0.5),
			MedianSpeedup: quantile(sp, 0.5),
		})
	}
	for _, s := range samples {
		allDelta = append(allDelta, s.deltaUs)
		allFull = append(allFull, s.fullUs)
		allSpeed = append(allSpeed, s.fullUs/s.deltaUs)
	}
	res.OverallDeltaMedianUs = quantile(allDelta, 0.5)
	res.OverallFullMedianUs = quantile(allFull, 0.5)
	res.OverallMedianSpeedup = quantile(allSpeed, 0.5)
	return res, nil
}

// Table renders the result for painter-bench.
func (r *DeltaBenchResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("delta vs full propagation (%s scale, %d ASes, %d peerings, %d trials)",
			r.Scale, r.ASes, r.Peerings, r.Trials),
		Header: []string{"changed ASes", "trials", "delta median us", "full median us", "speedup"},
	}
	for _, b := range r.Buckets {
		t.Rows = append(t.Rows, []string{
			b.Label, fmt.Sprintf("%d", b.Trials),
			fmt.Sprintf("%.1f", b.DeltaMedianUs),
			fmt.Sprintf("%.1f", b.FullMedianUs),
			fmt.Sprintf("%.1fx", b.MedianSpeedup),
		})
	}
	t.Rows = append(t.Rows, []string{
		"overall", fmt.Sprintf("%d", r.Trials),
		fmt.Sprintf("%.1f", r.OverallDeltaMedianUs),
		fmt.Sprintf("%.1f", r.OverallFullMedianUs),
		fmt.Sprintf("%.1fx", r.OverallMedianSpeedup),
	})
	return t
}

// quantile returns the q-quantile of xs (nearest-rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}
