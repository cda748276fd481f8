package plant

import "testing"

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
}

func TestTally(t *testing.T) {
	tl := NewTally()
	tl.Record("ab")
	if tl.testOnly != 2 {
		t.Fatalf("testOnly = %d, want 2", tl.testOnly)
	}
}
