package tm

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"painter/internal/tmproto"
)

func shardKey(i int) tmproto.FlowKey {
	return tmproto.FlowKey{
		Proto:   17,
		Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("192.0.2.1"),
		SrcPort: uint16(i), DstPort: 443,
	}
}

func TestFlowMapBasics(t *testing.T) {
	m := newFlowMap[string]()
	k := shardKey(1)
	if _, ok := m.Get(k); ok {
		t.Fatal("empty map has entry")
	}
	m.Set(k, "a")
	if v, ok := m.Get(k); !ok || v != "a" {
		t.Fatalf("get = %q/%v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	// Update mutates under the stripe lock and can delete.
	v := m.Update(k, func(v string, ok bool) (string, bool) {
		if !ok || v != "a" {
			t.Fatalf("update saw %q/%v", v, ok)
		}
		return "b", true
	})
	if v != "b" {
		t.Fatalf("update returned %q", v)
	}
	m.Update(k, func(string, bool) (string, bool) { return "", false })
	if _, ok := m.Get(k); ok || m.Len() != 0 {
		t.Fatal("delete via Update did not remove entry")
	}
}

func TestFlowMapSweepAndRange(t *testing.T) {
	m := newFlowMap[int]()
	for i := 0; i < 1000; i++ {
		m.Set(shardKey(i), i)
	}
	n := m.sweep(func(_ tmproto.FlowKey, v int) bool { return v%2 == 0 })
	if n != 500 || m.Len() != 500 {
		t.Fatalf("sweep removed %d, len %d", n, m.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := m.Get(shardKey(i))
		if ok != (i%2 == 1) || (ok && v != i) {
			t.Fatalf("key %d after sweep: %d, %v", i, v, ok)
		}
	}
}

// TestFlowHashSpread checks the stripe hash actually spreads realistic
// keys: sequential client ports must not collapse onto a few stripes.
func TestFlowHashSpread(t *testing.T) {
	counts := make([]int, flowShardCount)
	const n = 1 << 12
	for i := 0; i < n; i++ {
		counts[hashFlowKey(shardKey(i))&(flowShardCount-1)]++
	}
	want := n / flowShardCount
	for s, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("stripe %d holds %d of %d keys (expected ≈%d)", s, c, n, want)
		}
	}
}

func TestFlowMapConcurrent(t *testing.T) {
	m := newFlowMap[int]()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := shardKey(i)
				m.Update(k, func(v int, _ bool) (int, bool) { return v + 1, true })
				m.Get(k)
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for i := 0; i < 500; i++ {
		v, _ := m.Get(shardKey(i))
		total += v
	}
	if total != 8*500 {
		t.Fatalf("lost updates: total = %d, want %d", total, 8*500)
	}
	if m.Len() != 500 {
		t.Fatalf("len = %d", m.Len())
	}
	_ = fmt.Sprint(total)
}
