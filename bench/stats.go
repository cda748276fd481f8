package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of an ascending slice: the
// smallest element with at least q of the samples at or below it. It
// never interpolates, so every reported latency is one that happened.
func quantile(asc []float64, q float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	rank := rankOf(q, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1]
}

// rankOf is ceil(q*n), with the product's rounding error taken off
// first so that 0.99 of 1000 is rank 990 on every platform.
func rankOf(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// median is the nearest-rank 0.5 quantile of an unsorted slice.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the nearest-rank first, second and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	return quantile(asc, 0.25), quantile(asc, 0.5), quantile(asc, 0.75)
}

// midmean is the mean of the middle half: the lowest and the highest
// quarter of the samples (rounded down) are dropped first. Over a
// handful of repetitions it shrugs off one stray value as a median
// does, but moves smoothly, where a median jumps, when the repetitions
// fall into two modes.
func midmean(xs []float64) float64 {
	asc := sorted(xs)
	drop := len(asc) / 4
	return mean(asc[drop : len(asc)-drop])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first. It stops at p99 because that is the tail the tick and echo
// metrics are named after.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// tailQuantile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, so a reported tail is never one
// or two outliers. With fewer than forty samples no rung qualifies and
// the tail is the maximum (q = 1).
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond := n - rankOf(q, n); beyond >= 10 {
			return q
		}
	}
	return 1
}

// tail returns the chosen tail percentile and its value.
func tail(xs []float64) (q, v float64) {
	q = tailQuantile(len(xs))
	return q, quantile(sorted(xs), q)
}

// openLoop paces an open-loop generator: send i is due at start +
// i/rate whatever happened to earlier sends, and each send's lateness
// (actual minus due) is kept, because a round trip timed from its due
// time includes it.
type openLoop struct {
	start    time.Time
	interval time.Duration
	lateUs   []float64
}

func newOpenLoop(start time.Time, ratePerSec float64) *openLoop {
	return &openLoop{start: start, interval: time.Duration(float64(time.Second) / ratePerSec)}
}

// due is when send i should leave.
func (o *openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// dueBy is how many sends are due at now (sends 0..dueBy-1).
func (o *openLoop) dueBy(now time.Time) int {
	if now.Before(o.start) {
		return 0
	}
	return int(now.Sub(o.start)/o.interval) + 1
}

// sent records that send i left at at.
func (o *openLoop) sent(i int, at time.Time) {
	late := at.Sub(o.due(i))
	if late < 0 {
		late = 0
	}
	o.lateUs = append(o.lateUs, float64(late)/float64(time.Microsecond))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
