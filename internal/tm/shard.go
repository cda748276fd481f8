package tm

// Lock-striped flow tables. Both tunnel ends key hot per-packet state
// by tmproto.FlowKey — the PoP's Known Flows NAT table and the edge's
// flow→destination pinning table. A single mutex around one map turns
// into the datapath's global serialization point once reads arrive in
// batches from several sockets, so the state is striped across
// flowShardCount independently locked maps selected by a hash of the
// key. SO_REUSEPORT already spreads flows across reader goroutines by
// 4-tuple hash; striping by the same identity means readers rarely
// contend on a stripe.

import (
	"encoding/binary"
	"sync"

	"painter/internal/tmproto"
)

// flowShardCount is the stripe count (power of two so the hash maps by
// mask). 16 stripes keep worst-case contention at readers/16 even with
// every socket busy.
const flowShardCount = 16

// hashFlowKey mixes the 13 key bytes FNV-1a style. The kernel hashes
// the outer 4-tuple, we hash the inner 5-tuple, so stripe choice is
// stable across tunnel re-homes (the outer address changes, the inner
// flow does not).
func hashFlowKey(k tmproto.FlowKey) uint32 {
	var b [16]byte
	b[0] = k.Proto
	src := k.Src.As4()
	copy(b[1:5], src[:])
	dst := k.Dst.As4()
	copy(b[5:9], dst[:])
	binary.BigEndian.PutUint16(b[9:11], k.SrcPort)
	binary.BigEndian.PutUint16(b[11:13], k.DstPort)
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b[:13] {
		h ^= uint32(c)
		h *= prime32
	}
	// FNV-1a's low bits avalanche poorly and the stripe index is a low-bit
	// mask, so finish with a murmur3-style mixer.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// flowShard is one stripe: a mutex and its map.
type flowShard[V any] struct {
	mu sync.Mutex
	m  map[tmproto.FlowKey]V
	_  [40]byte // pad to a cache line so neighboring stripes don't false-share
}

// flowMap is a lock-striped map keyed by FlowKey.
type flowMap[V any] struct {
	shards [flowShardCount]flowShard[V]
}

func newFlowMap[V any]() *flowMap[V] {
	t := &flowMap[V]{}
	for i := range t.shards {
		t.shards[i].m = make(map[tmproto.FlowKey]V)
	}
	return t
}

func (t *flowMap[V]) shard(k tmproto.FlowKey) *flowShard[V] {
	return &t.shards[hashFlowKey(k)&(flowShardCount-1)]
}

// Get returns the value pinned to k.
func (t *flowMap[V]) Get(k tmproto.FlowKey) (V, bool) {
	s := t.shard(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Set stores v under k.
func (t *flowMap[V]) Set(k tmproto.FlowKey, v V) {
	s := t.shard(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// Update runs fn under the stripe lock with the current value (zero, ok
// false when absent). fn returns the new value and whether to keep the
// entry; returning keep=false deletes it. Update returns fn's value.
// fn must not call back into the map (lock is held).
func (t *flowMap[V]) Update(k tmproto.FlowKey, fn func(v V, ok bool) (V, bool)) V {
	s := t.shard(k)
	s.mu.Lock()
	old, ok := s.m[k]
	nv, keep := fn(old, ok)
	if keep {
		s.m[k] = nv
	} else if ok {
		delete(s.m, k)
	}
	s.mu.Unlock()
	return nv
}

// Len sums the stripe sizes. Approximate under concurrent mutation
// (each stripe is counted at a different instant), exact when quiesced.
func (t *flowMap[V]) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// sweep deletes every entry for which drop returns true, taking one
// stripe lock at a time so the datapath never stalls behind a full-table
// scan. Returns the number of entries deleted.
func (t *flowMap[V]) sweep(drop func(k tmproto.FlowKey, v V) bool) int {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for k, v := range s.m {
			if drop(k, v) {
				delete(s.m, k)
				total++
			}
		}
		s.mu.Unlock()
	}
	return total
}
