package bgp_test

// FuzzPropagateDelta: a fuzz-driven differential between chained delta
// repairs, the run from the empty Result and the map-based
// PropagateReference. The fuzzer controls the topology seed and a byte
// script of input mutations (withdraw / announce / re-prepend / re-home
// / tie-break flip); after every step the chained delta result must
// match a fresh PropagateResult and the reference byte for byte. Run
// via `make fuzz` alongside the wire-codec fuzz targets.

import (
	"bytes"
	"testing"

	"painter/internal/bgp"
	"painter/internal/topology"
)

func FuzzPropagateDelta(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x13, 0x27, 0x3b})
	f.Add(int64(3), []byte{0x04, 0x04, 0x04, 0x10, 0x21})
	f.Add(int64(7), []byte{0x01, 0x42, 0x99, 0x05, 0x3c, 0x7f, 0x02})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		g, err := topology.Generate(topology.GenConfig{
			Seed: seed&0x3f + 1, Tier1: 3, Tier2: 8, Stubs: 40,
			MeanStubProviders: 2.0, Tier2PeerProb: 0.3,
			EnterpriseFrac: 0.3, ContentFrac: 0.05,
		})
		if err != nil {
			t.Skip()
		}
		asns := g.ASNs()
		ft := newFlipTB(uint64(seed))
		s := int(seed & 0x7fffffff)

		// Deterministic starting injections from the seed.
		inj := []bgp.Injection{
			{Neighbor: asns[s%len(asns)], Class: bgp.ClassCustomer, Ingress: 1},
			{Neighbor: asns[s*7%len(asns)], Class: bgp.ClassPeer, Ingress: 2},
			{Neighbor: asns[s*13%len(asns)], Class: bgp.ClassProvider, Ingress: 3},
		}
		prev, err := bgp.PropagateResult(g, inj, ft.tb())
		if err != nil {
			t.Fatal(err)
		}

		// One byte per mutation: low bits pick the op, high bits the
		// operand. The chained delta output must match a fresh full
		// propagation and the reference after every step.
		for pc, b := range script {
			arg := int(b >> 3)
			var flipped []topology.ASN
			next := append([]bgp.Injection(nil), inj...)
			switch b % 6 {
			case 0: // withdraw
				if len(next) > 0 {
					i := arg % len(next)
					next = append(next[:i], next[i+1:]...)
				}
			case 1: // announce
				next = append(next, bgp.Injection{
					Neighbor: asns[arg%len(asns)],
					Class:    bgp.RouteClass(arg % 3),
					Ingress:  bgp.IngressID(10 + pc),
					Prepend:  arg % 4,
				})
			case 2: // re-prepend
				if len(next) > 0 {
					next[arg%len(next)].Prepend = arg % 4
				}
			case 3: // re-home ingress tag
				if len(next) > 0 {
					next[arg%len(next)].Ingress = bgp.IngressID(60 + arg)
				}
			case 4: // tie-break flip
				as := asns[arg%len(asns)]
				ft.flip(as)
				flipped = append(flipped, as)
			case 5: // no-op step: delta must return prev itself
			}
			full, err := bgp.PropagateResult(g, next, ft.tb())
			if err != nil {
				t.Fatal(err)
			}
			delta, _, err := bgp.PropagateDelta(prev, g, next, flipped, ft.tb())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(delta.Bytes(), full.Bytes()) {
				t.Fatalf("step %d (op %d): delta selection diverged from full propagation", pc, b%6)
			}
			if !bytes.Equal(delta.Bytes(), referenceBytes(t, g, next, ft.tb())) {
				t.Fatalf("step %d (op %d): delta selection diverged from PropagateReference", pc, b%6)
			}
			inj, prev = next, delta
		}
	})
}
