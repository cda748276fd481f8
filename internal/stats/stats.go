// Package stats provides the small statistical toolkit shared by the
// PAINTER experiments: percentiles, CDFs, Zipf weights, and a
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

// Quantile returns the value at cumulative probability q in [0,1].
func (c *CDF) Quantile(q float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	return Percentile(c.sorted, q*100)
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
