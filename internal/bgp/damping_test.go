package bgp

import (
	"math"
	"net/netip"
	"testing"
	"time"
)

// fakeClock drives the damper deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestDamper() (*Damper, *fakeClock) {
	c := &fakeClock{t: time.Date(2023, 9, 10, 0, 0, 0, 0, time.UTC)}
	return NewDamper(c.now), c
}

func TestDamperSuppressAfterRepeatedFlaps(t *testing.T) {
	d, _ := newTestDamper()
	p := netip.MustParsePrefix("10.0.0.0/24")
	if d.Suppressed(p) {
		t.Fatal("fresh prefix suppressed")
	}
	d.OnWithdraw(p) // 1000
	if d.Suppressed(p) {
		t.Fatal("one flap should not suppress")
	}
	d.OnWithdraw(p) // 2000 >= threshold
	if !d.Suppressed(p) {
		t.Fatal("two rapid withdrawals should suppress")
	}
}

func TestDamperPenaltyDecays(t *testing.T) {
	d, c := newTestDamper()
	p := netip.MustParsePrefix("10.0.0.0/24")
	d.OnWithdraw(p)
	before := d.penaltyOf(p)
	c.advance(15 * time.Minute) // one half-life
	after := d.penaltyOf(p)
	if after < before*0.45 || after > before*0.55 {
		t.Errorf("penalty after one half-life = %v, want ~%v/2", after, before)
	}
	c.advance(10 * 15 * time.Minute)
	if d.penaltyOf(p) != 0 {
		t.Errorf("penalty should floor to zero, got %v", d.penaltyOf(p))
	}
}

func TestDamperReuseAfterDecay(t *testing.T) {
	d, c := newTestDamper()
	p := netip.MustParsePrefix("10.0.0.0/24")
	d.OnWithdraw(p)
	d.OnWithdraw(p)
	d.OnWithdraw(p)
	if !d.Suppressed(p) {
		t.Fatal("should be suppressed")
	}
	// 3000 penalty decays below the 750 reuse threshold after two
	// half-lives.
	c.advance(30 * time.Minute)
	if d.Suppressed(p) {
		t.Errorf("penalty %v should have released suppression", d.penaltyOf(p))
	}
}

func TestDamperMaxSuppressBound(t *testing.T) {
	d, c := newTestDamper()
	p := netip.MustParsePrefix("10.0.0.0/24")
	for i := 0; i < 5; i++ {
		d.OnWithdraw(p)
	}
	if !d.Suppressed(p) {
		t.Fatal("should be suppressed")
	}
	// A withdrawal every 10 minutes holds the penalty far above the
	// reuse threshold, so only maxSuppress can end the suppression.
	for elapsed := time.Duration(0); elapsed < maxSuppress; elapsed += 10 * time.Minute {
		c.advance(10 * time.Minute)
		d.OnWithdraw(p)
	}
	c.advance(time.Minute)
	if pen := d.penaltyOf(p); pen <= reuseThreshold {
		t.Fatalf("penalty %v decayed below the reuse threshold; the test needs it above", pen)
	}
	if d.Suppressed(p) {
		t.Error("maxSuppress must bound suppression time")
	}
}

func TestDamperAttrChangeCheaperThanWithdraw(t *testing.T) {
	d, _ := newTestDamper()
	pw := netip.MustParsePrefix("10.0.0.0/24")
	pa := netip.MustParsePrefix("10.0.1.0/24")
	d.OnWithdraw(pw)
	d.OnAttrChange(pa)
	if d.penaltyOf(pa) >= d.penaltyOf(pw) {
		t.Errorf("attr change penalty %v should be below withdraw penalty %v",
			d.penaltyOf(pa), d.penaltyOf(pw))
	}
}

func TestSafeUpdateInterval(t *testing.T) {
	d, c := newTestDamper()
	iv := safeUpdateInterval()
	if iv <= 0 {
		t.Fatalf("interval = %v", iv)
	}
	// Advertising at the safe interval must never suppress, even over
	// many iterations (the orchestrator's pacing guarantee).
	p := netip.MustParsePrefix("10.0.0.0/24")
	for i := 0; i < 200; i++ {
		d.OnAttrChange(p)
		if d.Suppressed(p) {
			t.Fatalf("suppressed at iteration %d despite safe pacing (penalty %v)", i, d.penaltyOf(p))
		}
		c.advance(iv + time.Second)
	}
	// Advertising 5x faster must eventually suppress.
	d2, c2 := newTestDamper()
	suppressed := false
	for i := 0; i < 200; i++ {
		d2.OnAttrChange(p)
		if d2.Suppressed(p) {
			suppressed = true
			break
		}
		c2.advance(iv / 5)
	}
	if !suppressed {
		t.Error("flapping 5x faster than the safe interval should suppress")
	}
}

// penaltyOf returns the current (decayed) penalty for a prefix.
func (d *Damper) penaltyOf(p netip.Prefix) float64 {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.state[p]
	if s == nil {
		return 0
	}
	d.decayTo(s, now)
	return s.penalty
}

// safeUpdateInterval returns the minimum spacing between attribute-
// changing re-advertisements of one prefix that never triggers
// suppression: the interval at which the steady-state penalty stays
// below the suppress threshold, in closed form. TestSafeUpdateInterval
// holds the Damper's decay and threshold to it.
func safeUpdateInterval() time.Duration {
	// Steady state of penalty P with decay factor f per interval T and
	// per-flap addition A: P = A / (1 - f), f = 2^(-T/halflife).
	// Require P < suppressThreshold ⇒ f < 1 - A/S ⇒
	// T > -halflife * log2(1 - A/S).
	ratio := float64(attrPenalty) / suppressThreshold
	return time.Duration(-float64(halfLife) * math.Log2(1-ratio))
}
