package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("Percentile(50) of {0,10} = %v, want 5", got)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty input: err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("p=-1 should error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("p=101 should error")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(xs []float64, pRaw uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		p := float64(pRaw) / 255 * 100
		got, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		mn, mx := slices.Min(xs), slices.Max(xs)
		return got >= mn-1e-9 && got <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		c := NewCDF(clean)
		probes := append([]float64(nil), clean...)
		sort.Float64s(probes)
		prev := -1.0
		for _, x := range probes {
			p := c.At(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	c := NewCDF(xs)
	q, err := c.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 30 {
		t.Errorf("Quantile(0.5) = %v, want 30", q)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(100, 1.0)
	if len(w) != 100 {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for i, x := range w {
		if x <= 0 {
			t.Errorf("weight %d non-positive", i)
		}
		if i > 0 && x > w[i-1] {
			t.Errorf("weights not decreasing at %d", i)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
	// Heavier exponent concentrates more mass at the head.
	w2 := ZipfWeights(100, 2.0)
	if w2[0] <= w[0] {
		t.Errorf("s=2 head weight %v should exceed s=1 head weight %v", w2[0], w[0])
	}
	if ZipfWeights(0, 1) != nil {
		t.Error("ZipfWeights(0) should be nil")
	}
}

func TestSampleWeighted(t *testing.T) {
	rng := NewRand(42)
	weights := []float64{0, 1, 0}
	for i := 0; i < 50; i++ {
		idx, err := SampleWeighted(rng, weights)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Fatalf("SampleWeighted picked zero-weight index %d", idx)
		}
	}
	if _, err := SampleWeighted(rng, []float64{0, 0}); err == nil {
		t.Error("all-zero weights should error")
	}
	if _, err := SampleWeighted(rng, []float64{-1, 2}); err == nil {
		t.Error("negative weight should error")
	}
}

func TestSampleWeightedDistribution(t *testing.T) {
	rng := NewRand(7)
	weights := []float64{1, 3}
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		idx, err := SampleWeighted(rng, weights)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("index 1 sampled %.3f of the time, want ~0.75", frac)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(1), NewRand(1)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

// At returns P(X <= x): the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}
