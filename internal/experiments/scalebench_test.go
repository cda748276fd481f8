package experiments_test

import (
	"testing"

	"painter/internal/experiments"
	"painter/internal/figures"
)

func TestScaleBenchSmallSmoke(t *testing.T) {
	rep, err := figures.RunScaleBench(figures.ScaleBenchConfig{Seed: 7, Scales: []experiments.Scale{experiments.ScaleSmall}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rep.Rows))
	}
	r := rep.Rows[0]
	if r.Scale != "small" || r.ASes == 0 || r.UGs == 0 || r.Peerings == 0 {
		t.Fatalf("implausible row: %+v", r)
	}
	if r.SolveMs <= 0 || r.BuildMs <= 0 {
		t.Fatalf("missing timings: %+v", r)
	}
	if r.Prefixes == 0 || r.Prefixes > r.Budget {
		t.Fatalf("prefix count %d outside (0, budget %d]", r.Prefixes, r.Budget)
	}
	if got := rep.Table(); len(got.Rows) != 1 {
		t.Fatalf("table has %d rows, want 1", len(got.Rows))
	}
}
