package core

// The test-owned routing-model oracle. refState is the map-shaped model
// of one UG — compliance as a set, estimates keyed by ingress, learned
// preferences as refFacts (beats[i][j]: "routes to i over j") — and
// refExpect is Eq. (2) over it with the pairwise dominance scan: the
// plainest form of §3.1's filter, kept out of the production structs so
// the solver's own layout can change underneath it. refModel mirrors an
// Orchestrator's states and is fed the same observations.
//
// learnScript drives a ugState and a refState through one sequence of
// learn calls and compares expectSc with refExpect field for field (float
// bits) after every step. It drives Orchestrator.Learn too, once per step
// and once with every step as one observation, and compares the state
// Learn leaves with the ugState's. The table below and FuzzLearnExpect
// both run through it.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"painter/internal/bgp"
	"painter/internal/usergroup"
)

// refFacts is the plain preference store: refFacts[i][j] records that
// the UG routed to i while j was available.
type refFacts map[bgp.IngressID]map[bgp.IngressID]bool

func (f refFacts) count() int {
	n := 0
	for _, losers := range f {
		n += len(losers)
	}
	return n
}

type refState struct {
	compliant map[bgp.IngressID]bool
	// est holds NaN for a compliant ingress without coverage.
	est     map[bgp.IngressID]float64
	popDist []float64
	beats   refFacts
}

// newRefState snapshots a state that has not learned anything yet.
func newRefState(st *ugState) *refState {
	r := &refState{
		compliant: make(map[bgp.IngressID]bool, len(st.compliant)),
		est:       make(map[bgp.IngressID]float64, len(st.compliant)),
		popDist:   st.popDist,
		beats:     refFacts{},
	}
	for k, ing := range st.compliant {
		r.compliant[ing] = true
		r.est[ing] = st.est[k]
	}
	return r
}

// learn is ugState.learn over the maps: chosen becomes compliant if it
// was not, its estimate becomes the measurement, it beats every other
// compliant member of peerings, and facts it contradicts are dropped.
func (r *refState) learn(peerings []bgp.IngressID, chosen bgp.IngressID, measuredMs float64) int {
	r.compliant[chosen] = true
	r.est[chosen] = measuredMs
	if r.beats[chosen] == nil {
		r.beats[chosen] = make(map[bgp.IngressID]bool)
	}
	facts := 0
	for _, other := range peerings {
		if other == chosen || !r.compliant[other] {
			continue
		}
		if !r.beats[chosen][other] {
			r.beats[chosen][other] = true
			facts++
		}
		delete(r.beats[other], chosen)
	}
	return facts
}

// refExpect is Eq. (2) for one UG and one peering set, in the filtering
// order of expectSc's doc comment; every candidate is tested for
// dominance against every other.
func refExpect(r *refState, peerings []bgp.IngressID, reuseKm float64) Expectation {
	var cands []bgp.IngressID
	minDist := math.Inf(1)
	for _, ing := range peerings {
		if !r.compliant[ing] {
			continue
		}
		cands = append(cands, ing)
		if d := r.popDist[ing]; d < minDist {
			minDist = d
		}
	}
	var sum float64
	e := Expectation{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, j := range cands {
		if slices.ContainsFunc(cands, func(i bgp.IngressID) bool { return i != j && r.beats[i][j] }) {
			continue
		}
		ms := r.est[j]
		if math.IsNaN(ms) {
			continue
		}
		e.Min, e.Max = math.Min(e.Min, ms), math.Max(e.Max, ms)
		if r.popDist[j] <= minDist+reuseKm {
			sum += ms
			e.N++
		}
	}
	if e.N == 0 {
		return Expectation{}
	}
	e.Mean = sum / float64(e.N)
	return e
}

// sameExpectation compares every field, floats by bit pattern.
func sameExpectation(a, b Expectation) bool {
	return a.N == b.N && sameBits([]float64{a.Mean, a.Min, a.Max}, []float64{b.Mean, b.Min, b.Max})
}

// refModel mirrors an Orchestrator's routing model state by state.
type refModel struct {
	o      *Orchestrator
	states []*refState
}

// newRefModel snapshots o, which must not have learned anything yet.
func newRefModel(o *Orchestrator) *refModel {
	m := &refModel{o: o, states: make([]*refState, len(o.states))}
	for i, st := range o.states {
		m.states[i] = newRefState(st)
	}
	return m
}

// learn is Orchestrator.Learn over the mirror.
func (m *refModel) learn(cfg Config, obs []Observation) int {
	facts := 0
	for _, ob := range obs {
		si, ok := m.o.stateIdx[ob.UG]
		if !ok || ob.Prefix < 0 || ob.Prefix >= len(cfg.Prefixes) {
			continue
		}
		facts += m.states[si].learn(cfg.Prefixes[ob.Prefix], ob.Ingress, ob.LatencyMs)
	}
	return facts
}

// refPredict is PredictBenefit over refExpect: Eq. (1) with each UG's
// best prefix mean, its best optimistic latency and the worst latency of
// its best-mean prefix, all against the anycast baseline.
func refPredict(m *refModel, cfg Config) (mean, lower, upper float64) {
	for i, rs := range m.states {
		st := m.o.states[i]
		valMean, valMin, valMax := st.anycast, st.anycast, st.anycast
		for _, S := range cfg.Prefixes {
			e := refExpect(rs, S, m.o.params.ReuseKm)
			if !e.usable() {
				continue
			}
			if e.Min < valMin {
				valMin = e.Min
			}
			if e.Mean < valMean {
				valMean, valMax = e.Mean, math.Min(e.Max, st.anycast)
			}
		}
		w := st.ug.Weight
		mean += w * (st.anycast - valMean)
		upper += w * (st.anycast - valMin)
		lower += w * (st.anycast - valMax)
	}
	return mean, lower, upper
}

// mirrorExec feeds the mirror every round Solve learns from: Solve
// passes each Execute's configuration and observations straight to Learn.
// Before learning, it records refPredict of the configuration, which is
// what Solve has just predicted for it.
type mirrorExec struct {
	inner Executor
	m     *refModel
	facts int
	preds [][3]float64
}

func (e *mirrorExec) Execute(cfg Config) ([]Observation, error) {
	mean, lower, upper := refPredict(e.m, cfg)
	e.preds = append(e.preds, [3]float64{mean, lower, upper})
	obs, err := e.inner.Execute(cfg)
	if err == nil {
		e.facts += e.m.learn(cfg, obs)
	}
	return obs, err
}

// learnOnce is one ugState.learn on a freshly loaded rank table.
func learnOnce(st *ugState, peerings []bgp.IngressID, chosen bgp.IngressID, ms float64) int {
	var t rankTable
	t.load(st)
	return st.learn(&t, peerings, chosen, ms)
}

// hasFact and factCount are the tests' only view of how ugState stores
// learned preferences.
func hasFact(st *ugState, winner, loser bgp.IngressID) bool {
	rw, rl := st.rank(winner), st.rank(loser)
	if rw < 0 || rl < 0 {
		return false
	}
	row := st.factRow(rw)
	return row != nil && hasBit(row, int32(rl))
}

func factCount(st *ugState) int {
	n := 0
	for _, w := range st.rows {
		n += bits.OnesCount64(w)
	}
	return n
}

// learnStep is one observation: the UG chose `chosen` while `peerings`
// were advertised, at measured latency ms.
type learnStep struct {
	peerings []bgp.IngressID
	chosen   bgp.IngressID
	ms       float64
}

// learnScript is a one-UG scenario: ingress IDs are 0..len(popDist)-1,
// est[id] is the starting estimate (NaN: no coverage) of the IDs marked
// compliant, and every query is evaluated after every step.
type learnScript struct {
	compliant []bool
	est       []float64
	popDist   []float64
	reuseKm   float64
	steps     []learnStep
	queries   [][]bgp.IngressID
}

// run plays the script on both models and returns the first divergence.
func (s learnScript) run() error {
	estOf, distOf := map[bgp.IngressID]float64{}, map[bgp.IngressID]float64{}
	for id, c := range s.compliant {
		if c {
			estOf[bgp.IngressID(id)] = s.est[id]
		}
		distOf[bgp.IngressID(id)] = s.popDist[id]
	}
	st := flatState(usergroup.UG{}, 0, estOf, distOf)
	ref := newRefState(st)
	// learnOrch is a one-state orchestrator over a fresh copy of st.
	learnOrch := func() *Orchestrator {
		return &Orchestrator{states: []*ugState{flatState(usergroup.UG{}, 0, estOf, distOf)},
			stateIdx: map[usergroup.ID]int32{0: 0}, params: Params{Workers: 2}}
	}
	stepOrch, batchOrch := learnOrch(), learnOrch()
	var batchCfg Config
	var batchObs []Observation
	batchFacts := 0
	sc := new(exScratch)
	check := func(when string) error {
		for _, q := range s.queries {
			if got, want := st.expectSc(sc, q, s.reuseKm), refExpect(ref, q, s.reuseKm); !sameExpectation(got, want) {
				return fmt.Errorf("%s: expectSc(%v) = %+v, reference %+v", when, q, got, want)
			}
		}
		for have, want := range ref.beats {
			for loser := range want {
				if !hasFact(st, have, loser) {
					return fmt.Errorf("%s: fact %d beats %d missing", when, have, loser)
				}
			}
		}
		if got, want := factCount(st), ref.beats.count(); got != want {
			return fmt.Errorf("%s: %d facts stored, reference %d", when, got, want)
		}
		return nil
	}
	if err := check("before learning"); err != nil {
		return err
	}
	// One table serves every step, as Learn's serves all of a state's
	// observations: a compliance correction must reload it.
	var table rankTable
	table.load(st)
	for k, step := range s.steps {
		got := st.learn(&table, step.peerings, step.chosen, step.ms)
		if want := ref.learn(step.peerings, step.chosen, step.ms); got != want {
			return fmt.Errorf("step %d: learn(%v, %d) = %d new facts, reference %d", k, step.peerings, step.chosen, got, want)
		}
		ob := Observation{Prefix: len(batchCfg.Prefixes), Ingress: step.chosen, LatencyMs: step.ms}
		batchCfg.Prefixes, batchObs, batchFacts = append(batchCfg.Prefixes, step.peerings), append(batchObs, ob), batchFacts+got
		ob.Prefix = 0
		if n := stepOrch.Learn(Config{Prefixes: [][]bgp.IngressID{step.peerings}}, []Observation{ob}); n != got {
			return fmt.Errorf("step %d: Orchestrator.Learn counted %d new facts, ugState.learn %d", k, n, got)
		}
		if err := sameState(stepOrch.states[0], st); err != nil {
			return fmt.Errorf("step %d: after Orchestrator.Learn: %v", k, err)
		}
		if len(st.compliant) != len(ref.compliant) || !slices.IsSorted(st.compliant) {
			return fmt.Errorf("step %d: compliant set %v, reference %v", k, st.compliant, ref.compliant)
		}
		for r, ing := range st.compliant {
			if !ref.compliant[ing] || math.Float64bits(st.est[r]) != math.Float64bits(ref.est[ing]) {
				return fmt.Errorf("step %d: ingress %d: estimate %v, reference %v (compliant %v)",
					k, ing, st.est[r], ref.est[ing], ref.compliant[ing])
			}
		}
		if err := check(fmt.Sprintf("after step %d", k)); err != nil {
			return err
		}
	}
	if n := batchOrch.Learn(batchCfg, batchObs); n != batchFacts {
		return fmt.Errorf("every step in one Orchestrator.Learn: %d new facts, step by step %d", n, batchFacts)
	}
	if err := sameState(batchOrch.states[0], st); err != nil {
		return fmt.Errorf("every step in one Orchestrator.Learn: %v", err)
	}
	return nil
}

// ids is shorthand for ingress-ID literals.
func ids(xs ...bgp.IngressID) []bgp.IngressID { return xs }

// namedScript is one hand-written scenario.
type namedScript struct {
	name string
	learnScript
}

// learnScriptCases are the hand-written scenarios; they also seed
// FuzzLearnExpect. The two-word case comes last.
func learnScriptCases() []namedScript {
	nan := math.NaN()
	// Eight ingresses 0..7; 0 and 5 start non-compliant. Distances put 3
	// far outside a 3,000 km reuse radius of the rest.
	base := func() learnScript {
		return learnScript{
			compliant: []bool{false, true, true, true, true, false, true, true},
			est:       []float64{0, 10, 30, 100, nan, 0, 22, 41},
			popDist:   []float64{50, 100, 500, 9000, 150, 7000, 2500, 3500},
			reuseKm:   3000,
			queries: [][]bgp.IngressID{
				ids(1, 2, 3), ids(3, 2, 1), ids(1), ids(4), ids(0, 5), ids(1, 2, 3, 4, 6, 7),
				ids(0, 1, 2, 3, 4, 5, 6, 7), ids(7, 6, 5, 4), ids(2, 2, 1), nil,
			},
		}
	}
	var cases []namedScript
	add := func(name string, steps ...learnStep) {
		s := base()
		s.steps = steps
		cases = append(cases, namedScript{name, s})
	}
	add("unlearned")
	add("repeat observation",
		learnStep{ids(1, 2, 3), 2, 25},
		learnStep{ids(1, 2, 3), 2, 25})
	add("contradicted fact",
		learnStep{ids(1, 2, 3), 2, 25},
		learnStep{ids(1, 2), 1, 9},
		learnStep{ids(2, 1, 6), 2, 27})
	add("nan estimates",
		learnStep{ids(1, 4, 6), 4, nan},
		learnStep{ids(4, 7), 7, nan},
		learnStep{ids(1, 2), 1, nan})
	// Compliance corrections: 5 then 0 join below existing winners 6 and
	// 2, so every stored rank at or above the insertion point shifts.
	add("rank shift",
		learnStep{ids(6, 7, 1), 6, 20},
		learnStep{ids(2, 3, 7), 2, 31},
		learnStep{ids(5, 6, 7), 5, 12},
		learnStep{ids(0, 2, 6, 1), 0, 8},
		learnStep{ids(6, 0, 5), 6, 19})
	add("chosen outside the advertised set",
		learnStep{ids(1, 2), 7, 40},
		learnStep{ids(1, 2), 5, 33})
	// 70 compliant ingresses: facts cross a 64-bit word boundary, and a
	// correction at ID 0 carries a bit from one word into the next.
	wide := learnScript{reuseKm: 1e9}
	var everything []bgp.IngressID
	for id := 0; id < 72; id++ {
		wide.compliant = append(wide.compliant, id != 0 && id != 40)
		wide.est = append(wide.est, float64(10+id%13))
		wide.popDist = append(wide.popDist, float64(100*id))
		everything = append(everything, bgp.IngressID(id))
	}
	wide.queries = [][]bgp.IngressID{everything, ids(63, 64, 65), ids(70, 64, 1), ids(0, 40, 71)}
	wide.steps = []learnStep{
		{everything, 70, 5},
		{ids(62, 63, 64, 65), 64, 6},
		{ids(0, 1, 64, 70), 0, 4},
		{ids(40, 64, 70, 71), 40, 3},
		{ids(64, 70), 64, 6},
	}
	return append(cases, namedScript{"two words", wide})
}

func TestExpectMatchesReference(t *testing.T) {
	for _, s := range learnScriptCases() {
		if err := s.run(); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

// randomLearnScript draws a scenario over up to 100 ingress IDs (two
// bitset words): sparse or dense compliance, a fifth of the estimates
// and some measurements NaN, advertised sets that include non-compliant
// and repeated IDs, and winners drawn from anywhere — so corrections
// land below, between and above earlier winners.
func randomLearnScript(rng *rand.Rand) learnScript {
	n := 2 + rng.Intn(99)
	density := 0.2 + 0.7*rng.Float64()
	s := learnScript{reuseKm: []float64{0, 1500, 3000, 1e9}[rng.Intn(4)]}
	for id := 0; id < n; id++ {
		s.compliant = append(s.compliant, rng.Float64() < density)
		est := 1 + 200*rng.Float64()
		if rng.Intn(5) == 0 {
			est = math.NaN()
		}
		s.est = append(s.est, est)
		s.popDist = append(s.popDist, 12000*rng.Float64())
	}
	randomSet := func(max int) []bgp.IngressID {
		set := make([]bgp.IngressID, rng.Intn(max+1))
		for k := range set {
			set[k] = bgp.IngressID(rng.Intn(n))
		}
		return set
	}
	for k := rng.Intn(16); k > 0; k-- {
		step := learnStep{peerings: randomSet(10), chosen: bgp.IngressID(rng.Intn(n)), ms: 1 + 200*rng.Float64()}
		if len(step.peerings) > 0 && rng.Intn(4) != 0 {
			step.chosen = step.peerings[rng.Intn(len(step.peerings))]
		}
		if rng.Intn(10) == 0 {
			step.ms = math.NaN()
		}
		s.steps = append(s.steps, step)
	}
	for k := 1 + rng.Intn(6); k > 0; k-- {
		s.queries = append(s.queries, randomSet(12))
	}
	return s
}

func TestExpectMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 400; trial++ {
		s := randomLearnScript(rng)
		if err := s.run(); err != nil {
			t.Fatalf("trial %d: %v\nscript: %+v", trial, err, s)
		}
	}
}
