package core

// Determinism contract of the sharded grow loop: any worker count must
// produce byte-identical solves. Each candidate's marginal is computed
// wholly on one worker over the fixed statesFor order, and the argmax /
// heap ordering is worker-independent, so the only difference between
// Workers=1 and Workers=N is wall-clock.

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"painter/internal/bgp"
	"painter/internal/obs/span"
)

func solveWithWorkers(t *testing.T, seed int64, workers int) (Config, []IterationReport) {
	t.Helper()
	b := newBench(t, seed)
	p := DefaultParams(6)
	p.Workers = workers
	o, err := New(b.in, b.exec, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, o.Reports()
}

func TestShardedSolveIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, seed := range []int64{41, 97} {
		cfg1, rep1 := solveWithWorkers(t, seed, 1)
		for _, workers := range []int{2, 4, 7} {
			cfgN, repN := solveWithWorkers(t, seed, workers)
			if !reflect.DeepEqual(cfg1, cfgN) {
				t.Fatalf("seed %d: config with %d workers differs from sequential:\n%v\nvs\n%v",
					seed, workers, cfg1, cfgN)
			}
			if !reflect.DeepEqual(rep1, repN) {
				t.Fatalf("seed %d: iteration reports with %d workers differ from sequential",
					seed, workers)
			}
		}
	}
}

// repairAfterFailure solves seed 61's bench at the given worker count,
// fails one advertised peering, and repairs the prefixes containing it
// plus one more, tracing the repair under a core.repair root.
func repairAfterFailure(t *testing.T, workers int, tr *span.Tracer) (Config, []int) {
	t.Helper()
	b := newBench(t, 61)
	p := DefaultParams(6)
	p.Workers = workers
	o, err := New(b.in, b.exec, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.Solve()
	if err != nil {
		t.Fatal(err)
	}
	victim := cfg.Prefixes[0][0]
	var dirty []int
	extra := false
	for pi, S := range cfg.Prefixes {
		if slices.Contains(S, victim) {
			dirty = append(dirty, pi)
		} else if !extra {
			dirty, extra = append(dirty, pi), true
		}
	}
	if len(dirty) < 2 {
		t.Fatalf("dirty %v: want at least two prefixes to regrow", dirty)
	}
	live := func(id bgp.IngressID) bool { return id != victim }
	root := tr.StartRoot("core.repair")
	defer root.Finish()
	out := o.repairConfig(root, cfg, dirty, live, nil)
	for _, S := range out.Prefixes {
		if slices.Contains(S, victim) {
			t.Fatalf("repaired config still advertises failed peering %d: %v", victim, out.Prefixes)
		}
	}
	return out, dirty
}

func TestShardedRepairIdenticalAcrossWorkerCounts(t *testing.T) {
	seq, _ := repairAfterFailure(t, 1, nil)
	for _, workers := range []int{3, 5} {
		if got, _ := repairAfterFailure(t, workers, nil); !reflect.DeepEqual(seq, got) {
			t.Fatalf("repairConfig with %d workers differs from sequential:\n%v\nvs\n%v",
				workers, seq.Prefixes, got.Prefixes)
		}
	}
}

// TestRepairTraceRegrowsEachDirtyPrefixOnce: a traced repair of k dirty
// prefixes records exactly k core.regrow_prefix children of its root,
// one per dirty index; the only other children are tail placements.
func TestRepairTraceRegrowsEachDirtyPrefixOnce(t *testing.T) {
	tr := span.New(span.Config{Seed: 1})
	_, dirty := repairAfterFailure(t, 1, tr)
	recs := tr.Recorder().Snapshot()
	var rootID uint64
	for _, r := range recs {
		if r.Name == "core.repair" {
			rootID = r.SpanID
		}
	}
	var regrown []string
	for _, r := range recs {
		if r.Name != "core.repair" && r.ParentID != rootID {
			t.Errorf("span %q is not a child of the repair root", r.Name)
		}
		switch r.Name {
		case "core.repair", "core.place_prefix":
		case "core.regrow_prefix":
			for _, a := range r.Attrs {
				if a.Key == "prefix" {
					regrown = append(regrown, a.Value)
				}
			}
		default:
			t.Errorf("unexpected span %q in a repair trace", r.Name)
		}
	}
	var want []string
	for _, pi := range dirty {
		want = append(want, strconv.Itoa(pi))
	}
	if !slices.Equal(regrown, want) {
		t.Fatalf("core.regrow_prefix spans for prefixes %v, want one per dirty prefix %v", regrown, want)
	}
}
