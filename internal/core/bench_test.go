package core

import (
	"testing"

	"painter/internal/bgp"
	"painter/internal/usergroup"
)

var sinkExpectation Expectation

// BenchmarkExpectLearned is Eq. (2) on one learned state: 64 compliant
// ingresses, eight of which have won an observation over eight others,
// queried with a 16-peering set that holds all eight winners.
func BenchmarkExpectLearned(b *testing.B) {
	est, dist := map[bgp.IngressID]float64{}, map[bgp.IngressID]float64{}
	for id := bgp.IngressID(0); id < 64; id++ {
		est[id], dist[id] = float64(10+id%17), float64(40*id)
	}
	st := flatState(usergroup.UG{}, 50, est, dist)
	for w := bgp.IngressID(0); w < 8; w++ {
		var advertised []bgp.IngressID
		for k := bgp.IngressID(0); k < 9; k++ {
			advertised = append(advertised, (8*w+5*k)%64)
		}
		learnOnce(st, advertised, 8*w, float64(12+w))
	}
	var query []bgp.IngressID
	for id := bgp.IngressID(0); id < 64; id += 4 {
		query = append(query, id)
	}
	sc := new(exScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkExpectation = st.expectSc(sc, query, 3000)
	}
}
