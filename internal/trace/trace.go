// Package trace reproduces the paper's residential traffic analysis
// (§2.2, Fig. 3, Appendix A): a synthetic anonymized capture of DNS
// answers and flow records from residential clients, and the matching
// pipeline that attributes each flow to the latest DNS record and
// measures how much traffic is sent after the record's TTL expires.
//
// The paper's capture is proprietary (Columbia residential buildings);
// the generator synthesizes a workload whose flow-duration/TTL joint
// distribution is tuned per cloud so the same analysis pipeline exhibits
// the published shape: ~80% of Cloud-A bytes sent ≥5 minutes after
// expiry, ~20% for Clouds B and C at one minute.
package trace

import (
	"fmt"
	"sort"
	"time"

	"painter/internal/stats"
)

// Cloud identifies one of the three large clouds of Fig. 3.
type Cloud uint8

// The three clouds.
const (
	CloudA Cloud = iota
	CloudB
	CloudC
	numClouds
)

func (c Cloud) String() string {
	switch c {
	case CloudA:
		return "Cloud A"
	case CloudB:
		return "Cloud B"
	case CloudC:
		return "Cloud C"
	default:
		return fmt.Sprintf("cloud(%d)", uint8(c))
	}
}

// ClientID is an anonymized residential unit.
type ClientID uint32

// Addr is an anonymized destination address token.
type Addr uint64

// DNSAnswer is one observed DNS response delivered to a client.
type DNSAnswer struct {
	Client ClientID
	Cloud  Cloud
	Addr   Addr
	TTL    time.Duration
	Time   time.Time
}

// FlowRecord is one observed 5-tuple flow (payload already discarded,
// per the anonymization pipeline).
type FlowRecord struct {
	Client     ClientID
	Dst        Addr
	Start, End time.Time
	Bytes      int64
}

// Capture is a synthetic packet capture: DNS answers plus flows.
type Capture struct {
	Answers []DNSAnswer
	Flows   []FlowRecord
}

// The workload generator's shape: the paper's capture scale (≈400
// units).
const (
	genSeed    = 17
	genClients = 400
	// flowsPerClient is the mean number of cloud flows per client in the
	// capture window.
	flowsPerClient = 30
)

// cloudProfile shapes each cloud's DNS TTLs and flow behaviour.
type cloudProfile struct {
	ttl time.Duration
	// flowDur draws a flow duration.
	durMin, durMax time.Duration
	// longFrac is the fraction of long-lived flows (conferencing, sync).
	longFrac               float64
	longDurMin, longDurMax time.Duration
	// cacheFrac is the fraction of flows started from a client-cached IP
	// after the record expired (the paper found cached-IP starts
	// outnumber record-outliving flows roughly 2:1 for post-expiry
	// traffic; per-cloud calibration reproduces Fig. 3's levels).
	cacheFrac                    float64
	cacheReuseMin, cacheReuseMax time.Duration
	bytesMin, bytesMax           int64
	share                        float64 // share of flows going to this cloud
}

var profiles = map[Cloud]cloudProfile{
	// Cloud A: short TTLs, much long-lived traffic, aggressive client IP
	// caching → most bytes land after expiry.
	CloudA: {
		ttl: 30 * time.Second, durMin: 30 * time.Second, durMax: 5 * time.Minute,
		longFrac: 0.55, longDurMin: 20 * time.Minute, longDurMax: 90 * time.Minute,
		cacheFrac:     0.60,
		cacheReuseMin: 5 * time.Minute, cacheReuseMax: 3 * time.Hour,
		bytesMin: 1 << 16, bytesMax: 1 << 28, share: 0.4,
	},
	// Clouds B and C: longer TTLs, shorter flows.
	CloudB: {
		ttl: 5 * time.Minute, durMin: 2 * time.Second, durMax: 4 * time.Minute,
		longFrac: 0.10, longDurMin: 10 * time.Minute, longDurMax: 40 * time.Minute,
		cacheFrac:     0.12,
		cacheReuseMin: 1 * time.Minute, cacheReuseMax: 30 * time.Minute,
		bytesMin: 1 << 12, bytesMax: 1 << 24, share: 0.35,
	},
	CloudC: {
		ttl: 10 * time.Minute, durMin: 1 * time.Second, durMax: 3 * time.Minute,
		longFrac: 0.08, longDurMin: 10 * time.Minute, longDurMax: 30 * time.Minute,
		cacheFrac:     0.10,
		cacheReuseMin: 1 * time.Minute, cacheReuseMax: 40 * time.Minute,
		bytesMin: 1 << 12, bytesMax: 1 << 24, share: 0.25,
	},
}

// Generate synthesizes the capture.
func Generate() *Capture {
	rng := stats.NewRand(genSeed)
	base := time.Date(2022, 12, 1, 10, 0, 0, 0, time.UTC)
	cap := &Capture{}
	var nextAddr Addr = 1

	dur := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
	}

	for c := 0; c < genClients; c++ {
		client := ClientID(c)
		n := int(flowsPerClient * (0.5 + rng.Float64()))
		for f := 0; f < n; f++ {
			// Pick a cloud by share.
			r := rng.Float64()
			var cloud Cloud
			var acc float64
			for cl := CloudA; cl < numClouds; cl++ {
				acc += profiles[cl].share
				if r < acc {
					cloud = cl
					break
				}
			}
			p := profiles[cloud]
			addr := nextAddr
			nextAddr++

			// DNS answer at a random point in the capture window.
			ansTime := base.Add(time.Duration(rng.Int63n(int64(30 * time.Minute))))
			cap.Answers = append(cap.Answers, DNSAnswer{
				Client: client, Cloud: cloud, Addr: addr, TTL: p.ttl, Time: ansTime,
			})

			// Flow start: either soon after the answer (fresh lookup) or,
			// for cache-reuse flows, well after TTL expiry.
			var start time.Time
			if rng.Float64() < p.cacheFrac {
				start = ansTime.Add(p.ttl + dur(p.cacheReuseMin, p.cacheReuseMax))
			} else {
				start = ansTime.Add(dur(0, 2*time.Second))
			}
			d := dur(p.durMin, p.durMax)
			if rng.Float64() < p.longFrac {
				d = dur(p.longDurMin, p.longDurMax)
			}
			bytes := p.bytesMin + rng.Int63n(p.bytesMax-p.bytesMin+1)
			cap.Flows = append(cap.Flows, FlowRecord{
				Client: client, Dst: addr, Start: start, End: start.Add(d), Bytes: bytes,
			})
		}
	}
	return cap
}

// Analysis is the Fig. 3 result: one curve per cloud.
type Analysis struct {
	// Curves[c][i] is the fraction of all bytes to cloud c sent at or
	// after DNS record expiry + the i-th offset Analyze was given.
	Curves map[Cloud][]float64
	// MatchedFlows / TotalFlows report pipeline match rate.
	MatchedFlows, TotalFlows int
}

// StandardOffsets are Fig. 3's x-axis points.
var StandardOffsets = []time.Duration{
	-time.Minute, -time.Second, 0, time.Second, time.Minute, 5 * time.Minute, time.Hour,
}

// Analyze runs the matching pipeline: each flow is attributed to the
// latest DNS answer delivered to the same client for the same
// destination address at or before the flow start (Appendix A). For
// each cloud it then computes, at each offset from record expiration,
// the fraction of bytes transmitted at or after that instant, assuming
// a uniform byte rate across each flow's lifetime.
func Analyze(cap *Capture, offsets []time.Duration) (*Analysis, error) {
	if len(offsets) == 0 {
		offsets = StandardOffsets
	}
	type key struct {
		c ClientID
		a Addr
	}
	answers := make(map[key][]DNSAnswer)
	for _, a := range cap.Answers {
		k := key{a.Client, a.Addr}
		answers[k] = append(answers[k], a)
	}
	for _, as := range answers {
		sort.Slice(as, func(i, j int) bool { return as[i].Time.Before(as[j].Time) })
	}

	totalBytes := make(map[Cloud]float64)
	afterBytes := make(map[Cloud][]float64) // per offset
	for c := CloudA; c < numClouds; c++ {
		afterBytes[c] = make([]float64, len(offsets))
	}

	an := &Analysis{
		Curves:     make(map[Cloud][]float64),
		TotalFlows: len(cap.Flows),
	}
	for _, f := range cap.Flows {
		as := answers[key{f.Client, f.Dst}]
		// Latest answer at or before flow start.
		idx := sort.Search(len(as), func(i int) bool { return as[i].Time.After(f.Start) }) - 1
		if idx < 0 {
			continue
		}
		rec := as[idx]
		an.MatchedFlows++
		expiry := rec.Time.Add(rec.TTL)
		totalBytes[rec.Cloud] += float64(f.Bytes)
		for oi, off := range offsets {
			cut := expiry.Add(off)
			afterBytes[rec.Cloud][oi] += float64(f.Bytes) * fracAfter(f, cut)
		}
	}
	for c := CloudA; c < numClouds; c++ {
		tb := totalBytes[c]
		pts := make([]float64, len(offsets))
		for oi := range offsets {
			if tb > 0 {
				pts[oi] = afterBytes[c][oi] / tb
			}
		}
		an.Curves[c] = pts
	}
	return an, nil
}

// fracAfter returns the fraction of the flow's bytes sent at or after
// cut, assuming uniform rate over [Start, End].
func fracAfter(f FlowRecord, cut time.Time) float64 {
	if !cut.After(f.Start) {
		return 1
	}
	if !cut.Before(f.End) {
		return 0
	}
	total := f.End.Sub(f.Start)
	if total <= 0 {
		return 0
	}
	return float64(f.End.Sub(cut)) / float64(total)
}
