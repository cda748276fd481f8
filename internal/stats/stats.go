// Package stats provides the small statistical toolkit shared by the
// PAINTER experiments: percentiles, CDFs, summaries, Zipf weights, and a
// deterministic RNG helper so every experiment is reproducible.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// NewRand returns a deterministic *rand.Rand for the given seed. All
// PAINTER components accept explicit RNGs so that experiments are exactly
// reproducible run-to-run.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the 50th percentile.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// meanOf returns the arithmetic mean.
func meanOf(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// weightedMean returns sum(w_i * x_i) / sum(w_i).
func weightedMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ws) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ws))
	}
	var num, den float64
	for i, x := range xs {
		if ws[i] < 0 {
			return 0, fmt.Errorf("stats: negative weight %v at %d", ws[i], i)
		}
		num += x * ws[i]
		den += ws[i]
	}
	if den == 0 {
		return 0, errors.New("stats: zero total weight")
	}
	return num / den, nil
}

// minOf returns the minimum element.
func minOf(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// maxOf returns the maximum element.
func maxOf(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// stddev returns the population standard deviation.
func stddev(xs []float64) (float64, error) {
	mu, err := meanOf(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs))), nil
}

// Summary holds the usual five-number-plus summary of a sample.
type Summary struct {
	N                  int
	Mean, Min, Max     float64
	P10, P25, P50, P75 float64
	P90, P95, P99      float64
}

// summarize computes a Summary; it returns ErrEmpty for empty input.
func summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	var s Summary
	s.N = len(xs)
	s.Mean, _ = meanOf(xs)
	s.Min, _ = minOf(xs)
	s.Max, _ = maxOf(xs)
	for _, pp := range []struct {
		p   float64
		dst *float64
	}{
		{10, &s.P10}, {25, &s.P25}, {50, &s.P50}, {75, &s.P75},
		{90, &s.P90}, {95, &s.P95}, {99, &s.P99},
	} {
		v, _ := Percentile(xs, pp.p)
		*pp.dst = v
	}
	return s, nil
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.N, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied and sorted).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of underlying samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x): the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the value at cumulative probability q in [0,1].
func (c *CDF) Quantile(q float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	return Percentile(c.sorted, q*100)
}

// Points returns up to n evenly spaced (x, P(X<=x)) pairs suitable for
// plotting the CDF curve.
type CDFPoint struct{ X, P float64 }

// Points samples the CDF at n evenly spaced quantiles.
func (c *CDF) Points(n int) []CDFPoint {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		if n == 1 {
			q = 0.5
		}
		idx := int(q * float64(len(c.sorted)-1))
		out = append(out, CDFPoint{X: c.sorted[idx], P: float64(idx+1) / float64(len(c.sorted))})
	}
	return out
}

// ZipfWeights returns n weights following a Zipf distribution with
// exponent s (w_i ∝ 1/i^s), normalized to sum to 1. Zipf skew is the
// standard model for traffic volume concentration across user networks.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// clamp limits v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SampleWeighted draws one index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative and not all
// zero.
func SampleWeighted(rng *rand.Rand, weights []float64) (int, error) {
	var total float64
	for _, w := range weights {
		if w < 0 {
			return 0, fmt.Errorf("stats: negative weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return 0, errors.New("stats: all weights zero")
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i, nil
		}
	}
	return len(weights) - 1, nil
}
