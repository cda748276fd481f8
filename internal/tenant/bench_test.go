package tenant

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunBenchSmall(t *testing.T) {
	res, err := RunBench(BenchConfig{Counts: []int{1, 2}, Seed: 7, Ticks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Syncs == 0 || row.Events == 0 {
			t.Errorf("empty row %+v", row)
		}
		if row.EventsPerSec <= 0 || row.P99SyncMs < row.P50SyncMs {
			t.Errorf("implausible row %+v", row)
		}
	}
	if res.Rows[1].Tenants != 2 || res.Rows[1].Syncs <= res.Rows[0].Syncs {
		t.Errorf("2-tenant row should sync more than 1-tenant row: %+v", res.Rows)
	}

	tab := res.Table().String()
	if !strings.Contains(tab, "multi-tenant") || !strings.Contains(tab, "p99 sync ms") {
		t.Errorf("table = %q", tab)
	}

	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || back.Rows[0].Tenants != 1 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestBenchQuantile(t *testing.T) {
	if q := benchQuantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	xs := []float64{1, 2, 3, 4, 5}
	if q := benchQuantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := benchQuantile(xs, 0.99); q != 4 {
		t.Errorf("p99 nearest-rank = %v", q)
	}
}
