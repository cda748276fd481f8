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

// DampingConfig holds the RFC 2439 parameters (Cisco-like defaults).
type DampingConfig struct {
	// WithdrawPenalty is added per withdrawal; AttrPenalty per attribute
	// change (re-announcement with different path).
	WithdrawPenalty float64
	AttrPenalty     float64
	// SuppressThreshold starts suppression; ReuseThreshold ends it.
	SuppressThreshold float64
	ReuseThreshold    float64
	// HalfLife is the penalty's exponential decay half-life.
	HalfLife time.Duration
	// MaxSuppress bounds how long a prefix stays suppressed.
	MaxSuppress time.Duration
}

// DefaultDampingConfig returns commonly deployed values.
func DefaultDampingConfig() DampingConfig {
	return DampingConfig{
		WithdrawPenalty:   1000,
		AttrPenalty:       500,
		SuppressThreshold: 2000,
		ReuseThreshold:    750,
		HalfLife:          15 * time.Minute,
		MaxSuppress:       60 * time.Minute,
	}
}

// Damper tracks per-prefix flap penalties. Safe for concurrent use.
type Damper struct {
	cfg DampingConfig

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
func NewDamper(cfg DampingConfig, nowFn func() time.Time) *Damper {
	if nowFn == nil {
		nowFn = time.Now
	}
	return &Damper{cfg: cfg, state: make(map[netip.Prefix]*dampState), now: nowFn}
}

// decayTo brings the penalty up to date. Caller holds d.mu.
func (d *Damper) decayTo(s *dampState, now time.Time) {
	dt := now.Sub(s.lastUpdated)
	if dt <= 0 || s.penalty == 0 {
		s.lastUpdated = now
		return
	}
	halves := float64(dt) / float64(d.cfg.HalfLife)
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
	d.flap(p, d.cfg.WithdrawPenalty)
}

// OnAttrChange records a re-announcement with changed attributes.
func (d *Damper) OnAttrChange(p netip.Prefix) {
	d.flap(p, d.cfg.AttrPenalty)
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
	if !s.suppressed && s.penalty >= d.cfg.SuppressThreshold {
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
		if s.penalty <= d.cfg.ReuseThreshold || now.Sub(s.suppressedAt) >= d.cfg.MaxSuppress {
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
			if s.penalty <= d.cfg.ReuseThreshold || now.Sub(s.suppressedAt) >= d.cfg.MaxSuppress {
				s.suppressed = false
				continue
			}
			n++
		}
	}
	return n
}
