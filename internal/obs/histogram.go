package obs

import (
	"math"
	"sync/atomic"
)

// Histogram bucketing: log-scale, fixed layout, derived directly from
// the float64 bit pattern so Observe needs no search. Each power-of-two
// octave is split into 4 sub-buckets by the top two mantissa bits,
// giving ~19% worst-case relative bucket width — plenty for latency
// and size distributions spanning nine decades.
//
// Covered exponent range: 2^histMinExp .. 2^(histMaxExp+1). With
// -40..+23 that is ~9.1e-13 .. 1.7e+7: nanoseconds-as-seconds up to
// multi-day durations, or bytes up to tens of MB. Values outside the
// range clamp to the first/last bucket; Sum and Max stay exact.
const (
	histMinExp     = -40
	histMaxExp     = 23
	histSubBuckets = 4
	histNumBuckets = (histMaxExp - histMinExp + 1) * histSubBuckets // 256
)

// Histogram is a lock-free fixed-bucket log-scale histogram. The zero
// value is NOT ready: use newHistogram (or Registry.Histogram). A nil
// *Histogram no-ops.
type Histogram struct {
	buckets [histNumBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated: exact sum
	maxBits atomic.Uint64 // float64 bits of the max observation
}

// newHistogram returns an empty histogram.
func newHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a positive finite v to its bucket.
func bucketIndex(v float64) int {
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	sub := int(bits >> 50 & 3) // top two explicit mantissa bits
	idx := (exp-histMinExp)*histSubBuckets + sub
	if idx < 0 {
		return 0
	}
	if idx >= histNumBuckets {
		return histNumBuckets - 1
	}
	return idx
}

// bucketUpper returns the exclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	oct := i / histSubBuckets
	sub := i % histSubBuckets
	// Bucket spans [2^e * (1 + sub/4), 2^e * (1 + (sub+1)/4)).
	return math.Ldexp(1+float64(sub+1)/histSubBuckets, histMinExp+oct)
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) float64 {
	oct := i / histSubBuckets
	sub := i % histSubBuckets
	return math.Ldexp(1+float64(sub)/histSubBuckets, histMinExp+oct)
}

// Observe records v. Non-finite values are dropped; v <= 0 clamps into
// the lowest bucket (counted, summed as-is) so "zero duration" is not
// silently lost.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	var idx int
	if v > 0 {
		idx = bucketIndex(v)
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	// Max starts at 0 and only moves up: for the non-positive
	// observations we clamp above, it simply stays 0.
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Snapshot returns a consistent-enough copy for reporting. Individual
// loads are atomic; under concurrent writes the snapshot may straddle
// an observation (count ahead of a bucket or vice versa) — quantile
// math tolerates that, and quiescent snapshots are exact.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	total := uint64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		total += n
	}
	// Clamp Count to the bucket total so quantiles never chase
	// observations whose bucket increment we did not see.
	if total < s.Count {
		s.Count = total
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram. Snapshots from
// histograms of the same layout (always true within this package) can
// be merged.
type HistSnapshot struct {
	Count   uint64
	Sum     float64
	Max     float64
	Buckets [histNumBuckets]uint64
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1) by
// linear interpolation within the containing log-scale bucket. Returns
// 0 on an empty snapshot. The estimate is capped at Max, and q=1
// returns Max exactly.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketLower(i), bucketUpper(i)
			if i == 0 {
				lo = 0 // bucket 0 also holds clamped v<=0 observations
			}
			frac := (rank - cum) / float64(n)
			v := lo + frac*(hi-lo)
			if s.Max > 0 && v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
	}
	return s.Max
}

// summary condenses a snapshot into the fields reports care about.
type HistSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// summary computes the standard report quantiles.
func (s *HistSnapshot) summary() HistSummary {
	return HistSummary{
		Count: s.Count,
		Sum:   s.Sum,
		Max:   s.Max,
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}
