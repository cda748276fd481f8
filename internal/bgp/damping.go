package bgp

import (
	"math"
	"net/netip"
	"sync"
	"time"
)

// Route-flap damping (RFC 2439). The Advertisement Orchestrator must
// pace its advertise→measure→learn iterations because ISPs penalize
// prefixes that flap: each withdrawal/re-announcement adds a penalty
// that decays exponentially; past the suppress threshold the prefix is
// ignored until the penalty decays below the reuse threshold. The
// Damper lets the orchestrator (and tests) check how fast configuration
// changes can safely be pushed.

// The RFC 2439 parameters, at the commonly deployed (Cisco-like)
// values.
const (
	// withdrawPenalty is added per withdrawal; attrPenalty per attribute
	// change (re-announcement with different path).
	withdrawPenalty = 1000
	attrPenalty     = 500
	// suppressThreshold starts suppression; reuseThreshold ends it.
	suppressThreshold = 2000
	reuseThreshold    = 750
	// halfLife is the penalty's exponential decay half-life.
	halfLife = 15 * time.Minute
	// maxSuppress bounds how long a prefix stays suppressed.
	maxSuppress = 60 * time.Minute
)

// Damper tracks per-prefix flap penalties. Safe for concurrent use.
type Damper struct {
	mu    sync.Mutex
	state map[netip.Prefix]*dampState
	// now allows tests to control time.
	now func() time.Time
}

type dampState struct {
	penalty      float64
	lastUpdated  time.Time
	suppressed   bool
	suppressedAt time.Time
}

// NewDamper creates a Damper. A nil nowFn uses time.Now.
func NewDamper(nowFn func() time.Time) *Damper {
	if nowFn == nil {
		nowFn = time.Now
	}
	return &Damper{state: make(map[netip.Prefix]*dampState), now: nowFn}
}

// decayTo brings the penalty up to date. Caller holds d.mu.
func (d *Damper) decayTo(s *dampState, now time.Time) {
	dt := now.Sub(s.lastUpdated)
	if dt <= 0 || s.penalty == 0 {
		s.lastUpdated = now
		return
	}
	halves := float64(dt) / float64(halfLife)
	s.penalty *= pow2(-halves)
	if s.penalty < 1 {
		s.penalty = 0
	}
	s.lastUpdated = now
}

// pow2 computes 2^x.
func pow2(x float64) float64 { return math.Exp2(x) }

// OnWithdraw records a withdrawal flap.
func (d *Damper) OnWithdraw(p netip.Prefix) {
	d.flap(p, withdrawPenalty)
}

// OnAttrChange records a re-announcement with changed attributes.
func (d *Damper) OnAttrChange(p netip.Prefix) {
	d.flap(p, attrPenalty)
}

func (d *Damper) flap(p netip.Prefix, penalty float64) {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.state[p]
	if s == nil {
		s = &dampState{lastUpdated: now}
		d.state[p] = s
	}
	d.decayTo(s, now)
	s.penalty += penalty
	if !s.suppressed && s.penalty >= suppressThreshold {
		s.suppressed = true
		s.suppressedAt = now
	}
}

// Suppressed reports whether the prefix is currently suppressed.
func (d *Damper) Suppressed(p netip.Prefix) bool {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.state[p]
	if s == nil {
		return false
	}
	d.decayTo(s, now)
	if s.suppressed {
		if s.penalty <= reuseThreshold || now.Sub(s.suppressedAt) >= maxSuppress {
			s.suppressed = false
		}
	}
	return s.suppressed
}

// SuppressedCount returns how many prefixes are currently suppressed
// (after bringing every penalty up to date). Intended for gauges; cost
// is linear in tracked prefixes.
func (d *Damper) SuppressedCount() int {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, s := range d.state {
		d.decayTo(s, now)
		if s.suppressed {
			if s.penalty <= reuseThreshold || now.Sub(s.suppressedAt) >= maxSuppress {
				s.suppressed = false
				continue
			}
			n++
		}
	}
	return n
}
