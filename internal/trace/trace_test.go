package trace

import (
	"testing"
	"time"
)

func testAnalysis(t *testing.T) *Analysis {
	t.Helper()
	cap := Generate()
	an, err := Analyze(cap, nil)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestGenerateScale(t *testing.T) {
	cap := Generate()
	if len(cap.Flows) < 5000 || len(cap.Answers) != len(cap.Flows) {
		t.Errorf("capture: %d flows, %d answers", len(cap.Flows), len(cap.Answers))
	}
	for _, f := range cap.Flows[:100] {
		if !f.End.After(f.Start) || f.Bytes <= 0 {
			t.Fatalf("bad flow %+v", f)
		}
	}
}

func TestAnalyzeMatchRate(t *testing.T) {
	an := testAnalysis(t)
	if an.MatchedFlows < an.TotalFlows*95/100 {
		t.Errorf("matched %d of %d flows; pipeline should match nearly all", an.MatchedFlows, an.TotalFlows)
	}
}

func TestCurvesMonotoneDecreasing(t *testing.T) {
	an := testAnalysis(t)
	for c, pts := range an.Curves {
		for i := 1; i < len(pts); i++ {
			if pts[i] > pts[i-1]+1e-9 {
				t.Errorf("%v curve not decreasing at %v", c, StandardOffsets[i])
			}
		}
		if pts[0] > 1 || pts[len(pts)-1] < 0 {
			t.Errorf("%v curve out of range", c)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	an := testAnalysis(t)
	at := func(c Cloud, off time.Duration) float64 {
		for i, o := range StandardOffsets {
			if o == off {
				return an.Curves[c][i]
			}
		}
		t.Fatalf("offset %v missing", off)
		return 0
	}
	// Cloud A: ~80% of bytes sent ≥5 min after expiry.
	if v := at(CloudA, 5*time.Minute); v < 0.7 || v > 0.92 {
		t.Errorf("Cloud A at +5min = %.2f, want ~0.8", v)
	}
	// Clouds B and C: ~20% at one minute after expiry.
	for _, c := range []Cloud{CloudB, CloudC} {
		if v := at(c, time.Minute); v < 0.08 || v > 0.4 {
			t.Errorf("%v at +1min = %.2f, want ~0.2", c, v)
		}
	}
	// Ordering: Cloud A must be markedly worse than B and C everywhere
	// after expiry.
	for _, off := range []time.Duration{time.Second, time.Minute, 5 * time.Minute} {
		if at(CloudA, off) <= at(CloudB, off) || at(CloudA, off) <= at(CloudC, off) {
			t.Errorf("Cloud A should exceed B and C at %v", off)
		}
	}
}

func TestFracAfter(t *testing.T) {
	start := time.Date(2022, 12, 1, 10, 0, 0, 0, time.UTC)
	f := FlowRecord{Start: start, End: start.Add(100 * time.Second), Bytes: 1000}
	cases := []struct {
		cut  time.Time
		want float64
	}{
		{start.Add(-time.Second), 1},
		{start, 1},
		{start.Add(50 * time.Second), 0.5},
		{start.Add(100 * time.Second), 0},
		{start.Add(200 * time.Second), 0},
	}
	for _, c := range cases {
		if got := fracAfter(f, c.cut); got != c.want {
			t.Errorf("fracAfter(%v) = %v, want %v", c.cut.Sub(start), got, c.want)
		}
	}
	// Zero-length flow.
	z := FlowRecord{Start: start, End: start}
	if fracAfter(z, start.Add(time.Nanosecond)) != 0 {
		t.Error("zero-length flow should send nothing after any later cut")
	}
}

func TestAnalyzeAttributesToLatestRecord(t *testing.T) {
	base := time.Date(2022, 12, 1, 10, 0, 0, 0, time.UTC)
	cap := &Capture{
		Answers: []DNSAnswer{
			{Client: 1, Cloud: CloudB, Addr: 7, TTL: time.Minute, Time: base},
			{Client: 1, Cloud: CloudC, Addr: 7, TTL: time.Hour, Time: base.Add(10 * time.Minute)},
		},
		Flows: []FlowRecord{
			// Starts after the second answer: must attribute to CloudC's
			// record, whose TTL has not expired → zero post-expiry bytes.
			{Client: 1, Dst: 7, Start: base.Add(11 * time.Minute), End: base.Add(12 * time.Minute), Bytes: 100},
		},
	}
	an, err := Analyze(cap, []time.Duration{0})
	if err != nil {
		t.Fatal(err)
	}
	if an.MatchedFlows != 1 {
		t.Fatalf("matched %d", an.MatchedFlows)
	}
	if v := an.Curves[CloudC][0]; v != 0 {
		t.Errorf("CloudC post-expiry frac = %v, want 0 (record still valid)", v)
	}
	if v := an.Curves[CloudB][0]; v != 0 {
		t.Errorf("CloudB got bytes but flow belongs to CloudC record")
	}
}

func TestUnmatchedFlowIgnored(t *testing.T) {
	base := time.Date(2022, 12, 1, 10, 0, 0, 0, time.UTC)
	cap := &Capture{
		Answers: []DNSAnswer{{Client: 1, Cloud: CloudA, Addr: 7, TTL: time.Minute, Time: base.Add(time.Hour)}},
		Flows:   []FlowRecord{{Client: 1, Dst: 7, Start: base, End: base.Add(time.Minute), Bytes: 100}},
	}
	an, err := Analyze(cap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if an.MatchedFlows != 0 {
		t.Error("flow predating all answers must not match")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate()
	b := Generate()
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("sizes differ")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatal("flows differ across same-seed runs")
		}
	}
}

// TestCachedToOutlivedRatio decomposes Cloud A's post-expiry bytes in
// a generated capture: bytes of flows started after their record
// expired (client-cached addresses) against bytes sent after expiry by
// flows started while it was valid (flows outliving the TTL). Each flow
// is matched to the latest answer at or before its start, as Analyze
// matches it.
func TestCachedToOutlivedRatio(t *testing.T) {
	cap := Generate()
	var cached, outlived float64
	for _, f := range cap.Flows {
		var rec *DNSAnswer
		for i := range cap.Answers {
			a := &cap.Answers[i]
			if a.Client == f.Client && a.Addr == f.Dst && !a.Time.After(f.Start) && (rec == nil || a.Time.After(rec.Time)) {
				rec = a
			}
		}
		if rec == nil || rec.Cloud != CloudA {
			continue
		}
		expiry := rec.Time.Add(rec.TTL)
		post := float64(f.Bytes) * fracAfter(f, expiry)
		if f.Start.After(expiry) {
			cached += post
		} else {
			outlived += post
		}
	}
	// Cloud A's post-expiry traffic should be dominated by cached-IP
	// starts (the paper observed roughly 2:1 cached:outlived, §2.2).
	if cached <= 0 || outlived <= 0 {
		t.Fatal("both post-expiry components should be present for Cloud A")
	}
	if r := cached / outlived; r < 1.0 || r > 5.0 {
		t.Errorf("Cloud A cached:outlived ratio = %.2f, want roughly 2:1", r)
	}
}
