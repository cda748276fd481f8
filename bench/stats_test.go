package main

import (
	"testing"
	"time"

	"painter/internal/obs/span"
)

func TestQuantileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.99, 7},
		{"median of ten is the fifth", asc, 0.5, 5},
		{"p90 of ten is the ninth", asc, 0.9, 9},
		{"p99 of ten is the last", asc, 0.99, 10},
		{"q=0 is the first", asc, 0, 1},
		{"q=1 is the last", asc, 1, 10},
		{"p25 of four is the first", []float64{10, 20, 30, 40}, 0.25, 10},
		{"just above a rank moves up", []float64{10, 20, 30, 40}, 0.26, 20},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
}

func TestMedianAndQuartilesDoNotReorderInput(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	q1, q2, q3 := quartiles(xs)
	if q1 != 3 || q2 != 5 || q3 != 7 {
		t.Errorf("quartiles = %v %v %v, want 3 5 7", q1, q2, q3)
	}
	if xs[0] != 9 || xs[8] != 5 {
		t.Errorf("input was reordered: %v", xs)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 3}, 2},                 // fewer than four: nothing to drop
		{[]float64{100, 2, 1, 3, -50}, 2},    // five: the lowest and the highest go
		{[]float64{1, 1, 1, 9, 9}, 11.0 / 3}, // two modes: between them, not on one
		{[]float64{8, 1, 2, 3, 4, 5, 6, 7}, 4.5},
	} {
		if got := midmean(c.xs); got != c.want {
			t.Errorf("midmean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 1},       // five solves: the tail is the slowest
		{39, 1},      // one short of p75 having ten beyond it
		{40, 0.75},   // forty trials
		{100, 0.90},  // p90 leaves exactly ten
		{199, 0.90},  // p95 would leave nine
		{200, 0.95},  // p95 leaves exactly ten
		{999, 0.95},  // p99 would leave nine
		{1000, 0.99}, // the churn floor
		{333333, 0.99},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q, v := tail(xs); q != 0.75 || v != 30 {
		t.Errorf("tail of 1..40 = p%v %v, want p0.75 30", q, v)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(100, 0)
	ol := newOpenLoop(start, 1000) // one send a millisecond
	if got := ol.due(3); !got.Equal(start.Add(3 * time.Millisecond)) {
		t.Errorf("due(3) = %v", got)
	}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Millisecond, 0},
		{0, 1},
		{999 * time.Microsecond, 1},
		{time.Millisecond, 2},
		{10*time.Millisecond + 1, 11},
	} {
		if got := ol.dueBy(start.Add(c.at)); got != c.want {
			t.Errorf("dueBy(start+%v) = %d, want %d", c.at, got, c.want)
		}
	}
	ol.sent(0, start)                           // on time
	ol.sent(1, start)                           // early: lateness floors at zero
	ol.sent(2, start.Add(4*time.Millisecond))   // 2 ms late
	ol.sent(3, start.Add(8*time.Millisecond))   // 5 ms late
	ol.sent(4, start.Add(9*time.Millisecond+1)) // a nanosecond more
	want := []float64{0, 0, 2000, 5000, 5000.001}
	if len(ol.lateUs) != len(want) {
		t.Fatalf("lateUs = %v", ol.lateUs)
	}
	for i := range want {
		if ol.lateUs[i] != want[i] {
			t.Errorf("lateUs[%d] = %v, want %v", i, ol.lateUs[i], want[i])
		}
	}
}

func TestSelfTimesSubtractsCoveredChildren(t *testing.T) {
	recs := []span.Record{
		{TraceID: 1, SpanID: 10, Name: "bench.core.solve", StartNs: 0, DurNs: 100},
		// two overlapping children cover [10,50); a third reaches past the parent's end
		{TraceID: 1, SpanID: 11, ParentID: 10, Name: "bench.core.execute", StartNs: 10, DurNs: 30},
		{TraceID: 1, SpanID: 12, ParentID: 10, Name: "bench.core.execute", StartNs: 30, DurNs: 20},
		{TraceID: 1, SpanID: 13, ParentID: 10, Name: "bench.core.execute", StartNs: 90, DurNs: 30},
		// a product span under the same parent is not a bench child
		{TraceID: 1, SpanID: 14, ParentID: 10, Name: "core.iteration", StartNs: 50, DurNs: 40},
	}
	st := selfTimes(recs)
	if got := st.dur["core.solve"]; len(got) != 1 || got[0] != 100 {
		t.Errorf("dur = %v, want [100]", got)
	}
	if got := st.self["core.solve"]; len(got) != 1 || got[0] != 50 {
		t.Errorf("self = %v, want [50]: 100 minus [10,50) and [90,100)", got)
	}
	if got := st.self["core.execute"]; len(got) != 3 || got[0] != 30 {
		t.Errorf("leaf self times = %v, want their durations", got)
	}
	if _, ok := st.dur["core.iteration"]; ok {
		t.Errorf("a span without the bench. prefix was counted")
	}
}
