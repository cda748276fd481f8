package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"painter/internal/bgp"
)

// serialLearn is the per-observation reference for Orchestrator.Learn:
// one pass over the observations in order, each learned on a rank table
// loaded for it alone, and each compliance correction indexed at once.
func serialLearn(o *Orchestrator, cfg Config, obs []Observation) int {
	facts := 0
	for _, ob := range obs {
		si, ok := o.stateIdx[ob.UG]
		if !ok || ob.Prefix < 0 || ob.Prefix >= len(cfg.Prefixes) || ob.Ingress < 0 {
			continue
		}
		st := o.states[si]
		before := len(st.compliant)
		facts += learnOnce(st, cfg.Prefixes[ob.Prefix], ob.Ingress, ob.LatencyMs)
		if len(st.compliant) != before {
			o.indexState(ob.Ingress, si)
		}
	}
	return facts
}

// sameState reports the first difference between two states' learned
// model: compliant set, estimates (by bits), preference rows and their
// index.
func sameState(a, b *ugState) error {
	switch {
	case !slices.Equal(a.compliant, b.compliant):
		return fmt.Errorf("compliant %v, want %v", a.compliant, b.compliant)
	case len(a.est) != len(b.est):
		return fmt.Errorf("%d estimates, want %d", len(a.est), len(b.est))
	case !slices.Equal(a.rows, b.rows) || a.words != b.words:
		return fmt.Errorf("rows %x (%d words), want %x (%d words)", a.rows, a.words, b.rows, b.words)
	case !slices.Equal(a.rowOf, b.rowOf):
		return fmt.Errorf("rowOf %v, want %v", a.rowOf, b.rowOf)
	}
	for r := range a.est {
		if math.Float64bits(a.est[r]) != math.Float64bits(b.est[r]) {
			return fmt.Errorf("estimate of %d is %v, want %v", a.compliant[r], a.est[r], b.est[r])
		}
	}
	return nil
}

// TestLearnMatchesSerialReference: the state-major, sharded Learn leaves
// every state's model and every byIngress row exactly as serialLearn
// does, and counts the same facts, at Workers 1 and 4, over two rounds.
// The observations are the small-scale bench's, prefix-major, so each
// state's observations interleave with the others'. Into them go compliance
// corrections for two states, A and B: A then B routes through a
// deployment peering outside its compliance model, then B then A through
// one foreign ingress ID past the index, whose byIngress row must read
// B, A as the observations did, not in state order. A negative ingress,
// an unknown UG and an out-of-range prefix ride along; after the rounds,
// the negative observation learned alone leaves its state and byIngress
// bit-identical.
func TestLearnMatchesSerialReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		b := newBench(t, 23)
		p := DefaultParams(6)
		p.Workers = workers
		got, err := New(b.in, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(b.in, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := executeConfig(b, 6)
		obs, err := b.exec.Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two states with a deployment peering missing from their
		// compliance model, each learned through it.
		all := b.world.Deploy.AllPeeringIDs()
		foreign := all[len(all)-1] + 40
		var corr []int32
		var missing []bgp.IngressID
		for i, st := range want.states {
			if len(corr) == 2 {
				break
			}
			for _, ing := range all {
				if st.rank(ing) < 0 {
					corr, missing = append(corr, int32(i)), append(missing, ing)
					break
				}
			}
		}
		if len(corr) < 2 {
			t.Fatal("no two states with a peering outside their compliance model")
		}
		ugOf := func(k int) Observation {
			return Observation{UG: want.states[corr[k]].ug.ID, Prefix: k % len(cfg.Prefixes)}
		}
		inject := []Observation{}
		for k := range corr {
			ob := ugOf(k)
			ob.Ingress, ob.LatencyMs = missing[k], 31+float64(k)
			inject = append(inject, ob)
		}
		for k := len(corr) - 1; k >= 0; k-- {
			ob := ugOf(k)
			ob.Ingress, ob.LatencyMs = foreign, math.NaN()
			inject = append(inject, ob)
		}
		neg := ugOf(0)
		neg.Ingress, neg.LatencyMs = -1, 7
		inject = append(inject, neg,
			Observation{UG: 1 << 30, Prefix: 0, Ingress: all[0], LatencyMs: 1},
			Observation{UG: want.states[0].ug.ID, Prefix: len(cfg.Prefixes), Ingress: all[0], LatencyMs: 1})
		var script []Observation
		step := len(obs) / (len(inject) + 1)
		for k, ob := range obs {
			script = append(script, ob)
			if j := k / step; k%step == step-1 && j < len(inject) {
				script = append(script, inject[j])
			}
		}
		for round := 0; round < 2; round++ {
			name := fmt.Sprintf("workers %d round %d", workers, round)
			if g, w := got.Learn(cfg, script), serialLearn(want, cfg, script); g != w {
				t.Fatalf("%s: Learn counted %d facts, reference %d", name, g, w)
			}
			for i := range want.states {
				if err := sameState(got.states[i], want.states[i]); err != nil {
					t.Fatalf("%s: state %d: %v", name, i, err)
				}
			}
			if len(got.byIngress) != len(want.byIngress) {
				t.Fatalf("%s: byIngress has %d rows, reference %d", name, len(got.byIngress), len(want.byIngress))
			}
			for ing := range want.byIngress {
				if !slices.Equal(got.byIngress[ing], want.byIngress[ing]) {
					t.Fatalf("%s: byIngress[%d] = %v, reference %v", name, ing, got.byIngress[ing], want.byIngress[ing])
				}
			}
			if row, order := want.byIngress[foreign], []int32{corr[1], corr[0]}; !slices.Equal(row, order) {
				t.Fatalf("%s: foreign ingress row %v, want the corrected states in observation order %v", name, row, order)
			}
		}
		st := got.states[corr[0]]
		before := &ugState{compliant: slices.Clone(st.compliant), est: slices.Clone(st.est),
			rows: slices.Clone(st.rows), rowOf: slices.Clone(st.rowOf), words: st.words}
		index := make([][]int32, len(got.byIngress))
		for ing, row := range got.byIngress {
			index[ing] = slices.Clone(row)
		}
		if n := got.Learn(cfg, []Observation{neg}); n != 0 {
			t.Fatalf("workers %d: a negative-ingress observation taught %d facts", workers, n)
		}
		if err := sameState(st, before); err != nil {
			t.Fatalf("workers %d: a negative-ingress observation changed its state: %v", workers, err)
		}
		if !slices.EqualFunc(got.byIngress, index, slices.Equal) {
			t.Fatalf("workers %d: a negative-ingress observation changed byIngress", workers)
		}
	}
}
