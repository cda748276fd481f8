package bgp_test

// Differential and metamorphic tests for PropagateDelta: a repair must
// be byte-identical to the run from the empty Result (PropagateResult,
// the same settle loop) and to the independent PropagateReference after
// arbitrary chains of input mutations — injection withdrawals and
// announcements, prepend and ingress changes, and per-AS tie-break
// flips — under adversarial tie-breakers. The chains
// double as the metamorphic compose property (delta∘delta over two
// changes ≡ full over the composed input) and the recovery property
// (undoing a change reproduces the pre-failure selection byte for
// byte).

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"painter/internal/bgp"
	"painter/internal/experiments"
	"painter/internal/topology"
)

// flipTB is hashTB extended with per-AS flip counters: bumping an AS's
// counter re-rolls its tie-break preferences only, modeling a netsim
// pref-flip event in BGP terms.
type flipTB struct {
	seed  uint64
	flips map[topology.ASN]uint64
}

func newFlipTB(seed uint64) *flipTB {
	return &flipTB{seed: seed, flips: make(map[topology.ASN]uint64)}
}

func (f *flipTB) flip(as topology.ASN) { f.flips[as]++ }

func (f *flipTB) tb() bgp.TieBreaker {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	return func(as topology.ASN, cands []bgp.Route) int {
		seed := f.seed ^ mix(f.flips[as]+0x9e3779b97f4a7c15)
		best, bestH := 0, uint64(0)
		for i, c := range cands {
			h := mix(seed ^ uint64(as)<<32 ^ uint64(c.Ingress)<<8 ^ uint64(c.Via))
			if i == 0 || h < bestH {
				best, bestH = i, h
			}
		}
		return best
	}
}

func deltaTopology(t *testing.T, seed int64) (*topology.Graph, []topology.ASN) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Seed: seed, Tier1: 4, Tier2: 14 + int(seed%5), Stubs: 90,
		MeanStubProviders: 2.2, Tier2PeerProb: 0.3,
		EnterpriseFrac: 0.3, ContentFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, g.ASNs()
}

// mutateInjections applies one random mutation, returning the new list
// and the ASes whose tie-breaks were flipped alongside it.
func mutateInjections(rng *rand.Rand, inj []bgp.Injection, asns []topology.ASN, ft *flipTB) ([]bgp.Injection, []topology.ASN) {
	out := append([]bgp.Injection(nil), inj...)
	var flipped []topology.ASN
	switch rng.Intn(6) {
	case 0: // withdraw one injection
		if len(out) > 1 {
			i := rng.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		}
	case 1: // announce a new injection
		out = append(out, bgp.Injection{
			Neighbor: asns[rng.Intn(len(asns))],
			Class:    bgp.RouteClass(rng.Intn(3)),
			Ingress:  bgp.IngressID(100 + rng.Intn(50)),
			Prepend:  rng.Intn(4),
		})
	case 2: // change one injection's prepend
		if len(out) > 0 {
			out[rng.Intn(len(out))].Prepend = rng.Intn(4)
		}
	case 3: // re-home one injection's ingress tag
		if len(out) > 0 {
			out[rng.Intn(len(out))].Ingress = bgp.IngressID(200 + rng.Intn(50))
		}
	case 4: // flip one AS's tie-break preferences
		as := asns[rng.Intn(len(asns))]
		ft.flip(as)
		flipped = append(flipped, as)
	case 5: // storm: several mutations at once
		for k := 0; k < 2+rng.Intn(3); k++ {
			var f []topology.ASN
			out, f = mutateInjections(rng, out, asns, ft)
			flipped = append(flipped, f...)
		}
	}
	return out, flipped
}

// expectedDiff computes the changed-AS set AS by AS through Route: the
// oracle for Result.Diff and PropagateDelta's changed set.
func expectedDiff(g *topology.Graph, prev, next *bgp.Result) map[topology.ASN]bool {
	d := make(map[topology.ASN]bool)
	for _, as := range g.ASNs() {
		pr, pok := prev.Route(as)
		nr, nok := next.Route(as)
		if pok != nok || pr != nr {
			d[as] = true
		}
	}
	return d
}

// referenceBytes encodes PropagateReference's selection in the format
// of Result.Bytes (settled count, then one record per settled AS in
// ascending ASN order), so the delta suites hold the engine to an
// independent oracle byte for byte: PropagateResult and PropagateDelta
// share one settle loop and cannot check each other alone.
func referenceBytes(t testing.TB, g *topology.Graph, inj []bgp.Injection, tb bgp.TieBreaker) []byte {
	t.Helper()
	ref, err := bgp.PropagateReference(g, inj, tb)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	asns := make([]topology.ASN, 0, len(ref))
	for as := range ref {
		asns = append(asns, as)
	}
	slices.Sort(asns)
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(ref)))
	for _, as := range asns {
		r := ref[as]
		buf = binary.BigEndian.AppendUint32(buf, uint32(as))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Ingress))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.PathLen))
		buf = append(buf, byte(r.Class))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Via))
	}
	return buf
}

func assertDeltaMatchesFull(t *testing.T, g *topology.Graph, prev *bgp.Result, inj []bgp.Injection, flipped []topology.ASN, tb bgp.TieBreaker, label string) *bgp.Result {
	t.Helper()
	full, err := bgp.PropagateResult(g, inj, tb)
	if err != nil {
		t.Fatalf("%s: full: %v", label, err)
	}
	delta, changed, err := bgp.PropagateDelta(prev, g, inj, flipped, tb)
	if err != nil {
		t.Fatalf("%s: delta: %v", label, err)
	}
	if !bytes.Equal(delta.Bytes(), full.Bytes()) {
		t.Fatalf("%s: delta selection differs from full propagation (delta settled %d, full %d)",
			label, delta.Len(), full.Len())
	}
	if !bytes.Equal(delta.Bytes(), referenceBytes(t, g, inj, tb)) {
		t.Fatalf("%s: delta selection differs from PropagateReference", label)
	}
	// The changed set must be exactly the selection diff vs the base.
	want := expectedDiff(g, prev, full)
	if len(changed) != len(want) {
		t.Fatalf("%s: changed set has %d ASes, want %d", label, len(changed), len(want))
	}
	for i, as := range changed {
		if !want[as] {
			t.Fatalf("%s: changed set contains unchanged AS %v", label, as)
		}
		if i > 0 && changed[i-1] >= as {
			t.Fatalf("%s: changed set not ascending at %d", label, i)
		}
	}
	return delta
}

// TestPropagateDeltaChains replays randomized mutation chains through
// the delta engine, asserting byte-identical selections against a fresh
// full propagation at every step. Because each step's delta base is the
// previous step's delta output, the chain is the metamorphic compose
// property: delta∘delta∘…∘delta over N changes ≡ full over the final
// composed input.
func TestPropagateDeltaChains(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, asns := deltaTopology(t, seed)
		rng := rand.New(rand.NewSource(seed * 977))
		ft := newFlipTB(uint64(seed) * 0x9e37)
		inj := randomInjections(rng, asns, 8)
		prev, err := bgp.PropagateResult(g, inj, ft.tb())
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 25; step++ {
			var flipped []topology.ASN
			inj, flipped = mutateInjections(rng, inj, asns, ft)
			prev = assertDeltaMatchesFull(t, g, prev, inj, flipped, ft.tb(),
				"seed "+string(rune('0'+seed))+" step")
		}
	}
}

// TestPropagateDeltaMatchesReference closes the loop with the retained
// map-based oracle: after a mutation chain, the delta output must match
// PropagateReference exactly (the PR 1 harness, now three engines deep).
func TestPropagateDeltaMatchesReference(t *testing.T) {
	g, asns := deltaTopology(t, 3)
	rng := rand.New(rand.NewSource(1234))
	ft := newFlipTB(0xfeed)
	inj := randomInjections(rng, asns, 10)
	prev, err := bgp.PropagateResult(g, inj, ft.tb())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		var flipped []topology.ASN
		inj, flipped = mutateInjections(rng, inj, asns, ft)
		var changed []topology.ASN
		prev, changed, err = bgp.PropagateDelta(prev, g, inj, flipped, ft.tb())
		if err != nil {
			t.Fatal(err)
		}
		_ = changed
		ref, err := bgp.PropagateReference(g, inj, ft.tb())
		if err != nil {
			t.Fatal(err)
		}
		if prev.Len() != len(ref) {
			t.Fatalf("step %d: delta settled %d ASes, reference %d", step, prev.Len(), len(ref))
		}
		for as, rr := range ref {
			if gr, ok := prev.Route(as); !ok || gr != rr {
				t.Fatalf("step %d: AS %v selected %+v (delta) vs %+v (reference)", step, as, gr, rr)
			}
		}
	}
}

// TestPropagateDeltaRecovery is the recovery metamorphic property:
// withdrawing injections and then restoring the original input must
// reproduce the pre-failure Result byte for byte, and a delta from the
// unchanged input is a pointer-identical no-op.
func TestPropagateDeltaRecovery(t *testing.T) {
	g, asns := deltaTopology(t, 5)
	rng := rand.New(rand.NewSource(55))
	ft := newFlipTB(0xabcd)
	inj := randomInjections(rng, asns, 12)
	base, err := bgp.PropagateResult(g, inj, ft.tb())
	if err != nil {
		t.Fatal(err)
	}

	// Fail: withdraw a third of the injections.
	failed := append([]bgp.Injection(nil), inj[:len(inj)-4]...)
	mid, changed, err := bgp.PropagateDelta(base, g, failed, nil, ft.tb())
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) == 0 {
		t.Fatal("withdrawing injections changed nothing — degenerate scenario")
	}

	// Recover: restore the original injections, delta from the failed state.
	rec, changed2, err := bgp.PropagateDelta(mid, g, inj, nil, ft.tb())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Bytes(), base.Bytes()) {
		t.Fatal("recovery did not reproduce the pre-failure selection")
	}
	// The recovery's changed set must exactly undo the failure's.
	wantBack := expectedDiff(g, mid, base)
	if len(changed2) != len(wantBack) {
		t.Fatalf("recovery changed %d ASes, want %d", len(changed2), len(wantBack))
	}

	// Unchanged input: prev comes back untouched.
	same, changed3, err := bgp.PropagateDelta(rec, g, inj, nil, ft.tb())
	if err != nil {
		t.Fatal(err)
	}
	if same != rec || changed3 != nil {
		t.Fatal("no-op delta did not return the base Result unchanged")
	}
}

// TestPropagateConcurrentPooled runs the engine from many goroutines at
// once over two graphs of different sizes, so the pooled run scratch
// moves between goroutines, graphs and both entry points (run under
// -race). Every run must match its serial result byte for byte.
func TestPropagateConcurrentPooled(t *testing.T) {
	type job struct {
		g           *topology.Graph
		inj, sub    []bgp.Injection
		base        *bgp.Result
		full, delta []byte
	}
	var jobs []job
	for i, stubs := range []int{40, 300} {
		g, err := topology.Generate(topology.GenConfig{
			Seed: int64(i + 3), Tier1: 4, Tier2: 12, Stubs: stubs,
			MeanStubProviders: 2.2, Tier2PeerProb: 0.3,
			EnterpriseFrac: 0.3, ContentFrac: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		inj := randomInjections(rand.New(rand.NewSource(int64(i))), g.ASNs(), 10)
		base, err := bgp.PropagateResult(g, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		sub := inj[:len(inj)-3]
		delta, _, err := bgp.PropagateDelta(base, g, sub, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{g: g, inj: inj, sub: sub, base: base, full: base.Bytes(), delta: delta.Bytes()})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := jobs[(w+i)%len(jobs)]
				full, err := bgp.PropagateResult(j.g, j.inj, nil)
				if err != nil || !bytes.Equal(full.Bytes(), j.full) {
					t.Errorf("worker %d: concurrent PropagateResult diverged (err %v)", w, err)
					return
				}
				delta, _, err := bgp.PropagateDelta(j.base, j.g, j.sub, nil, nil)
				if err != nil || !bytes.Equal(delta.Bytes(), j.delta) {
					t.Errorf("worker %d: concurrent PropagateDelta diverged (err %v)", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPropagateDeltaNoopAllocs pins the empty-frontier fast path at
// zero allocations: a delta with unchanged injections and no live flip
// must cost one equality scan, nothing more.
func TestPropagateDeltaNoopAllocs(t *testing.T) {
	g, asns := deltaTopology(t, 2)
	rng := rand.New(rand.NewSource(9))
	inj := randomInjections(rng, asns, 8)
	prev, err := bgp.PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An unsettled flipped AS is also a no-op: a tie-break nobody
	// exercises cannot move a selection.
	var unsettled []topology.ASN
	for _, as := range asns {
		if _, ok := prev.Route(as); !ok {
			unsettled = append(unsettled, as)
			break
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		res, changed, err := bgp.PropagateDelta(prev, g, inj, unsettled, nil)
		if err != nil || res != prev || changed != nil {
			t.Fatal("no-op delta returned a new result")
		}
	})
	if allocs != 0 {
		t.Fatalf("no-op PropagateDelta allocates %v times per run, want 0", allocs)
	}
}

// TestPropagateDeltaErrors covers the contract violations.
func TestPropagateDeltaErrors(t *testing.T) {
	g, asns := deltaTopology(t, 1)
	rng := rand.New(rand.NewSource(4))
	inj := randomInjections(rng, asns, 6)
	prev, err := bgp.PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bgp.PropagateDelta(nil, g, inj, nil, nil); err == nil {
		t.Fatal("nil base accepted")
	}
	other, _ := deltaTopology(t, 7)
	if _, _, err := bgp.PropagateDelta(prev, other, inj, nil, nil); err == nil {
		t.Fatal("foreign-graph base accepted")
	}
	if _, _, err := bgp.PropagateDelta(prev, g, inj, []topology.ASN{0xdeadbeef}, nil); err == nil {
		t.Fatal("unknown flipped AS accepted")
	}
	bad := append([]bgp.Injection(nil), inj...)
	bad[0].Neighbor = 0xdeadbeef
	if _, _, err := bgp.PropagateDelta(prev, g, bad, nil, nil); err == nil {
		t.Fatal("invalid injection accepted")
	}
	bad2 := append([]bgp.Injection(nil), inj...)
	bad2[0].Prepend = 99
	if _, _, err := bgp.PropagateDelta(prev, g, bad2, nil, nil); err == nil {
		t.Fatal("out-of-range prepend accepted")
	}
}

// TestPropagateDeltaNetsimTieBreaker runs the differential under real
// evaluation conditions: a generated deployment and the world's
// hidden-preference tie-breaker, mutating live peering subsets the way
// the resolve cache does.
func TestPropagateDeltaNetsimTieBreaker(t *testing.T) {
	for _, seed := range []int64{7, 21} {
		env, err := experiments.NewEnv(experiments.ScaleSmall, seed)
		if err != nil {
			t.Fatal(err)
		}
		all := env.Deploy.AllPeeringIDs()
		tb := env.World.TieBreaker()
		rng := rand.New(rand.NewSource(seed))
		inj, err := env.Deploy.Injections(all)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := bgp.PropagateResult(env.Graph, inj, tb)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			subset := make([]bgp.IngressID, 0, len(all))
			for _, id := range all {
				if rng.Intn(4) > 0 {
					subset = append(subset, id)
				}
			}
			if len(subset) == 0 {
				subset = all[:1]
			}
			sinj, err := env.Deploy.Injections(subset)
			if err != nil {
				t.Fatal(err)
			}
			prev = assertDeltaMatchesFull(t, env.Graph, prev, sinj, nil, tb, "netsim subset")
		}
	}
}

// TestResultViews covers the Result accessors against the map the
// reference engine returns.
func TestResultViews(t *testing.T) {
	g, asns := deltaTopology(t, 4)
	rng := rand.New(rand.NewSource(8))
	inj := randomInjections(rng, asns, 8)
	want, err := bgp.PropagateReference(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bgp.PropagateResult(g, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(want) {
		t.Fatalf("Len %d, want %d", res.Len(), len(want))
	}
	for as, r := range want {
		if got, ok := res.Route(as); !ok || got != r {
			t.Fatalf("Route(%v) = %+v, %v; want %+v", as, got, ok, r)
		}
	}
	for _, as := range asns {
		if _, ok := want[as]; !ok {
			if _, settled := res.Route(as); settled {
				t.Fatalf("Route(%v) settled, want unsettled", as)
			}
		}
	}
	if _, ok := res.Route(0xdeadbeef); ok {
		t.Fatal("Route of unknown AS reported settled")
	}
	// Diff against nil and against a differing result.
	if d := res.Diff(nil); len(d) != res.Len() {
		t.Fatalf("Diff(nil) returned %d ASes, want %d", len(d), res.Len())
	}
	res2, _, err := bgp.PropagateDelta(res, g, inj[:len(inj)-3], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := res2.Diff(res)
	wantD := expectedDiff(g, res, res2)
	if len(d) != len(wantD) {
		t.Fatalf("Diff returned %d ASes, want %d", len(d), len(wantD))
	}
	for _, as := range d {
		if !wantD[as] {
			t.Fatalf("Diff contains unchanged AS %v", as)
		}
	}
}
