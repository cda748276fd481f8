package experiments

import "testing"

// sharedEnv caches one small environment across tests in this package.
var sharedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := NewEnv(ScaleSmall, 7)
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	sharedEnv.World.SetDay(0)
	return sharedEnv
}

func TestNewEnvScales(t *testing.T) {
	e := env(t)
	if e.UGs.Len() == 0 || len(e.Deploy.AllPeeringIDs()) == 0 {
		t.Fatal("empty environment")
	}
	if e.UGs.Len() > e.AllUGs.Len() {
		t.Error("covered UGs exceed total")
	}
}

func TestBudgets(t *testing.T) {
	e := env(t)
	bs := e.Budgets([]float64{0.001, 0.01, 1.0, 1.0})
	if len(bs) == 0 {
		t.Fatal("no budgets")
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Error("budgets not strictly increasing (dedup failed)")
		}
	}
	n := len(e.Deploy.AllPeeringIDs())
	if bs[len(bs)-1] != n {
		t.Errorf("full budget = %d, want %d", bs[len(bs)-1], n)
	}
	if bs[0] < 1 {
		t.Error("budget below 1")
	}
}

func TestParseScale(t *testing.T) {
	for _, sc := range []Scale{ScaleSmall, ScalePEERING, ScaleAzure} {
		got, err := ParseScale(sc.String())
		if err != nil || got != sc {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", sc.String(), got, err, sc)
		}
	}
	if _, err := ParseScale("galactic"); err == nil {
		t.Error("ParseScale accepted an unknown preset")
	}
}
