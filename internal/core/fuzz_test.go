package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"painter/internal/bgp"
	"painter/internal/cloud"
	"painter/internal/geo"
	"painter/internal/usergroup"
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

// growVals are the estimates and frozen bases FuzzGrowAgainstReference
// draws from: the frozen floor's edge values — NaN, +Inf, zero, a
// subnormal, a negative — beside ordinary latencies.
var growVals = []float64{math.NaN(), math.Inf(1), 0, math.SmallestNonzeroFloat64, -3, 10.7, 20, 35, 50}

var (
	growWeights = []float64{1, 1, 0.5, 2, 0, 3, 1, math.Inf(1)}
	growDists   = []float64{0, 1000, 2500, 6000}
)

// growInstance is one small grow-loop scenario: peerings 1..n at one
// PoP, one UG state per row, and a sequence of grows on one orchestrator.
type growInstance struct {
	n      int
	weight []float64
	// est[i][x-1] is state i's estimate for peering x, absent when
	// comp[i][x-1] is false; dist[i][x-1] is its distance.
	est, dist [][]float64
	comp      [][]bool
	// learn[i] >= 0 makes state i route to its learn[i]-th compliant
	// peering over the rest, measured at learnMs[i].
	learn   []int
	learnMs []float64
	reuse   float64
	grows   []growStep
}

type growStep struct {
	cands []bgp.IngressID
	base  []float64
	dark  []bool
}

// decodeGrowInstance reads a growInstance left to right (a missing byte
// reads as 0):
//
//	n-1, m-1                     n <= 8 peerings, m <= 16 states
//	m x (weight, n x cell)       cell bit 0: compliant, bits 1-4 the
//	                             estimate, bits 5-6 the distance
//	m x learn                    learn%4 == 0: none; else the chosen
//	                             rank learn/4 and the measurement learn/16
//	reuse, grows-1               1 <= grows <= 6
//	per grow: flags              bit 0: a dark byte per state (dark when
//	                             its low two bits are 0); bit 1: a byte
//	                             masking the candidates; then a value per
//	                             state, which replaces the base when bit 2
//	                             is set or on the first grow, and lowers
//	                             it otherwise, as freezing a prefix does
//
// Values, weights and distances index growVals, growWeights and
// growDists modulo their length, so every byte string decodes.
func decodeGrowInstance(data []byte) growInstance {
	r := &byteReader{data}
	in := growInstance{n: 1 + r.next()%8}
	m := 1 + r.next()%16
	for i := 0; i < m; i++ {
		in.weight = append(in.weight, growWeights[r.next()%len(growWeights)])
		est, dist, comp := make([]float64, in.n), make([]float64, in.n), make([]bool, in.n)
		for x := range est {
			c := r.next()
			comp[x], est[x], dist[x] = c&1 != 0, growVals[(c>>1&15)%len(growVals)], growDists[c>>5&3]
		}
		in.est, in.dist, in.comp = append(in.est, est), append(in.dist, dist), append(in.comp, comp)
	}
	for i := 0; i < m; i++ {
		l := r.next()
		in.learn, in.learnMs = append(in.learn, -1), append(in.learnMs, growVals[(l/16)%len(growVals)])
		if l%4 != 0 {
			in.learn[i] = l / 4
		}
	}
	in.reuse = growDists[r.next()%len(growDists)]
	var base []float64
	for g := 1 + r.next()%6; g > 0; g-- {
		flags := r.next()
		step := growStep{base: make([]float64, m)}
		if flags&1 != 0 {
			step.dark = make([]bool, m)
			for i := range step.dark {
				step.dark[i] = r.next()&3 == 0
			}
		}
		mask := 0xff
		if flags&2 != 0 {
			mask = r.next()
		}
		for x := 1; x <= in.n; x++ {
			if mask>>(x-1)&1 != 0 {
				step.cands = append(step.cands, bgp.IngressID(x))
			}
		}
		for i := range step.base {
			v := growVals[r.next()%len(growVals)]
			if base == nil || flags&4 != 0 || v < base[i] {
				step.base[i] = v
			} else {
				step.base[i] = base[i]
			}
		}
		base = step.base
		in.grows = append(in.grows, step)
	}
	return in
}

// build makes the instance's orchestrator and its reference mirror, both
// after the learn step.
func (in growInstance) build(t *testing.T, p Params) (*Orchestrator, *refModel) {
	var peerings []cloud.Peering
	for x := 1; x <= in.n; x++ {
		peerings = append(peerings, cloud.Peering{ID: bgp.IngressID(x), PoP: 1, PeerASN: 100, ClassAtPeer: bgp.ClassPeer})
	}
	d, err := cloud.New(64500, []cloud.PoP{{ID: 1, Metro: geo.Metros()[0].Code}}, peerings)
	if err != nil {
		t.Fatal(err)
	}
	o := &Orchestrator{in: Inputs{Deploy: d}, params: p, byIngress: make([][]int32, in.n+1)}
	ref := &refModel{o: o}
	for i, w := range in.weight {
		est, dist := map[bgp.IngressID]float64{}, map[bgp.IngressID]float64{}
		for x := 1; x <= in.n; x++ {
			dist[bgp.IngressID(x)] = in.dist[i][x-1]
			if in.comp[i][x-1] {
				est[bgp.IngressID(x)] = in.est[i][x-1]
				o.byIngress[x] = append(o.byIngress[x], int32(i))
			}
		}
		st := flatState(usergroup.UG{ID: usergroup.ID(i), Weight: w}, 50, est, dist)
		rs := newRefState(st)
		if c := in.learn[i]; c >= 0 && len(st.compliant) > 1 {
			seen := slices.Clone(st.compliant)
			chosen := seen[c%len(seen)]
			learnOnce(st, seen, chosen, in.learnMs[i])
			rs.learn(seen, chosen, in.learnMs[i])
		}
		o.states = append(o.states, st)
		ref.states = append(ref.states, rs)
	}
	return o, ref
}

// FuzzGrowAgainstReference grows a tiny instance several times on one
// orchestrator, so every grow after the first reuses the scratch and its
// live index, and compares each grown set with refGrow, lazy and exact.
// The bases fall and rise between grows, through the values where the
// frozen floor's threshold is NaN, −Inf (dark) or finite, so the live
// index's generation rule meets every transition, NaN ones included.
func FuzzGrowAgainstReference(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	for k := 0; k < 8; k++ {
		seed := make([]byte, 120+rng.Intn(200))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			return
		}
		in := decodeGrowInstance(data)
		for _, exact := range []bool{false, true} {
			workers := 1
			if exact {
				workers = 2
			}
			o, ref := in.build(t, Params{PrefixBudget: 1, ReuseKm: in.reuse, Workers: workers, ExactGreedy: exact})
			for g, step := range in.grows {
				want := refGrow(ref, step.cands, step.base, step.dark, exact)
				if got := o.growUncached(step.cands, step.base, step.dark); !slices.Equal(got, want) {
					t.Fatalf("exact %v grow %d (cands %v, base %v, dark %v): grew %v, reference %v",
						exact, g, step.cands, step.base, step.dark, got, want)
				}
			}
		}
	})
}
