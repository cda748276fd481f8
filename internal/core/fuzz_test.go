package core

import (
	"math"
	"reflect"
	"testing"

	"painter/internal/bgp"
)

// The byte form of a learnScript, read left to right (a missing byte
// reads as 0):
//
//	n-2                          ingress IDs are 0..n-1, 2 <= n <= 101
//	n x (flags, dist/50 km)      flags bit 0: compliant; flags>>1 is the
//	                             starting estimate in ms, 0 meaning NaN
//	reuse/50 km
//	steps, then per step         count of peerings, the peerings, chosen,
//	                             measured ms (255 meaning NaN)
//	queries, then per query      count of IDs, the IDs
//
// Counts are taken mod 16 and IDs mod n, so every byte string decodes
// to a script; encodeLearnScript is the inverse for scripts whose values
// fit the byte fields.
type byteReader struct{ data []byte }

func (r *byteReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func decodeLearnScript(data []byte) learnScript {
	r := &byteReader{data}
	n := 2 + r.next()%100
	var s learnScript
	for id := 0; id < n; id++ {
		flags := r.next()
		est := math.NaN()
		if flags>>1 != 0 {
			est = float64(flags >> 1)
		}
		s.compliant = append(s.compliant, flags&1 != 0)
		s.est = append(s.est, est)
		s.popDist = append(s.popDist, 50*float64(r.next()))
	}
	s.reuseKm = 50 * float64(r.next())
	set := func() []bgp.IngressID {
		var ids []bgp.IngressID
		for k := r.next() % 16; k > 0; k-- {
			ids = append(ids, bgp.IngressID(r.next()%n))
		}
		return ids
	}
	for k := r.next() % 16; k > 0; k-- {
		step := learnStep{peerings: set(), chosen: bgp.IngressID(r.next() % n)}
		if ms := r.next(); ms == 255 {
			step.ms = math.NaN()
		} else {
			step.ms = float64(ms)
		}
		s.steps = append(s.steps, step)
	}
	for k := r.next() % 16; k > 0; k-- {
		s.queries = append(s.queries, set())
	}
	return s
}

func encodeLearnScript(s learnScript) []byte {
	out := []byte{byte(len(s.compliant) - 2)}
	for id, c := range s.compliant {
		flags := byte(0)
		if !math.IsNaN(s.est[id]) {
			flags = byte(s.est[id]) << 1
		}
		if c {
			flags |= 1
		}
		out = append(out, flags, byte(s.popDist[id]/50))
	}
	out = append(out, byte(s.reuseKm/50))
	set := func(ids []bgp.IngressID) {
		out = append(out, byte(len(ids)))
		for _, id := range ids {
			out = append(out, byte(id))
		}
	}
	out = append(out, byte(len(s.steps)))
	for _, step := range s.steps {
		set(step.peerings)
		ms := byte(255)
		if !math.IsNaN(step.ms) {
			ms = byte(step.ms)
		}
		out = append(out, byte(step.chosen), ms)
	}
	out = append(out, byte(len(s.queries)))
	for _, q := range s.queries {
		set(q)
	}
	return out
}

// fuzzSeedScripts are learnScriptCases cut to the byte form's ranges:
// at most 15 IDs per set, distances and the reuse radius below 12,800 km
// in 50 km steps, whole-millisecond estimates below 128.
func fuzzSeedScripts() []namedScript {
	cases := learnScriptCases()
	wide := &cases[len(cases)-1]
	wide.reuseKm = 12750
	wide.steps[0].peerings = ids(1, 9, 17, 25, 33, 41, 49, 57, 63, 64, 65, 69, 70, 71)
	wide.queries[0] = wide.steps[0].peerings
	return cases
}

// TestFuzzSeedsRoundTrip pins the seed corpus to the scenarios it is
// meant to carry: decoding a seed gives back the script that produced it.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	noNaN := func(s learnScript) learnScript { // NaN != NaN under DeepEqual
		for id := range s.est {
			if math.IsNaN(s.est[id]) || !s.compliant[id] {
				s.est[id] = -1
			}
		}
		for k := range s.steps {
			if math.IsNaN(s.steps[k].ms) {
				s.steps[k].ms = -1
			}
		}
		return s
	}
	for _, s := range fuzzSeedScripts() {
		got := decodeLearnScript(encodeLearnScript(s.learnScript))
		if err := got.run(); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
		if !reflect.DeepEqual(noNaN(got), noNaN(s.learnScript)) {
			t.Errorf("%s: seed decodes to\n%+v\nwant\n%+v", s.name, got, s.learnScript)
		}
	}
}

// FuzzLearnExpect drives the bitset fact store and the map-based oracle
// through the same observations: expectSc must equal refExpect on every
// query after every step, and both must count the same facts.
func FuzzLearnExpect(f *testing.F) {
	for _, s := range fuzzSeedScripts() {
		f.Add(encodeLearnScript(s.learnScript))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		s := decodeLearnScript(data)
		if err := s.run(); err != nil {
			t.Fatalf("%v\nscript: %+v", err, s)
		}
	})
}
