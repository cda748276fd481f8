package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b    string
		wantKm  float64
		slackKm float64
	}{
		{"nyc", "lon", 5570, 100},
		{"nyc", "lax", 3940, 100},
		{"tyo", "sin", 5320, 150},
		{"syd", "lon", 16990, 300},
		{"fra", "ams", 365, 40},
	}
	for _, c := range cases {
		ma, err := MetroByCode(c.a)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := MetroByCode(c.b)
		if err != nil {
			t.Fatal(err)
		}
		got := DistanceKm(ma.Coord, mb.Coord)
		if math.Abs(got-c.wantKm) > c.slackKm {
			t.Errorf("DistanceKm(%s,%s) = %.0f, want %.0f±%.0f", c.a, c.b, got, c.wantKm, c.slackKm)
		}
	}
}

func TestDistanceZero(t *testing.T) {
	c := Coord{40, -74}
	if d := DistanceKm(c, c); d != 0 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		c := Coord{clampLat(lat3), clampLon(lon3)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceBounded(t *testing.T) {
	// No two points on Earth are farther apart than half the circumference.
	maxD := math.Pi * EarthRadiusKm
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d := DistanceKm(a, b)
		return d >= 0 && d <= maxD+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 { return clampRange(v, -90, 90) }
func clampLon(v float64) float64 { return clampRange(v, -180, 180) }

func clampRange(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	span := hi - lo
	v = math.Mod(v-lo, span)
	if v < 0 {
		v += span
	}
	return v + lo
}

func TestMinRTTMonotonicInDistance(t *testing.T) {
	nyc, _ := MetroByCode("nyc")
	bos, _ := MetroByCode("bos")
	tyo, _ := MetroByCode("tyo")
	near := KmToMinRTTMs(DistanceKm(nyc.Coord, bos.Coord))
	far := KmToMinRTTMs(DistanceKm(nyc.Coord, tyo.Coord))
	if near >= far {
		t.Errorf("min RTT (nyc,bos)=%v ms should be < (nyc,tyo)=%v ms", near, far)
	}
	if near <= 0 {
		t.Errorf("min RTT between distinct metros must be positive, got %v ms", near)
	}
}

func TestFiberRTTExceedsMinRTT(t *testing.T) {
	a, _ := MetroByCode("lon")
	b, _ := MetroByCode("sin")
	minRTT := time.Duration(KmToMinRTTMs(DistanceKm(a.Coord, b.Coord)) * float64(time.Millisecond))
	if fiberRTT(a.Coord, b.Coord) <= minRTT {
		t.Error("fiberRTT must exceed minRTT (path stretch > 1)")
	}
}

func TestMinRTTKnownMagnitude(t *testing.T) {
	// NYC <-> London is ~5570 km, so min RTT ~ 55.7 ms.
	nyc, _ := MetroByCode("nyc")
	lon, _ := MetroByCode("lon")
	got := KmToMinRTTMs(DistanceKm(nyc.Coord, lon.Coord))
	if got < 50 || got > 62 {
		t.Errorf("min RTT (nyc,lon) = %v ms, want ~56ms", got)
	}
}

func TestKmRTTRoundTrip(t *testing.T) {
	f := func(km float64) bool {
		km = math.Abs(km)
		if math.IsNaN(km) || math.IsInf(km, 0) || km > 40000 {
			return true
		}
		// Out and back at fiber speed: half the RTT covers km.
		back := KmToMinRTTMs(km) * FiberSpeedKmPerMs / 2
		return math.Abs(back-km) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetroDatabase(t *testing.T) {
	ms := Metros()
	if len(ms) < 100 {
		t.Fatalf("metro database too small: %d", len(ms))
	}
	seen := make(map[string]bool)
	for _, m := range ms {
		if seen[m.Code] {
			t.Errorf("duplicate metro code %q", m.Code)
		}
		seen[m.Code] = true
		if !m.Coord.Valid() {
			t.Errorf("metro %q has invalid coordinate %v", m.Code, m.Coord)
		}
		if m.Weight <= 0 {
			t.Errorf("metro %q has non-positive weight", m.Code)
		}
		if m.Region == "" {
			t.Errorf("metro %q has empty region", m.Code)
		}
	}
}

func TestMetroByCode(t *testing.T) {
	m, err := MetroByCode("tyo")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "Tokyo" {
		t.Errorf("MetroByCode(tyo).Name = %q, want Tokyo", m.Name)
	}
	if _, err := MetroByCode("zzz"); err == nil {
		t.Error("MetroByCode(zzz) should fail")
	}
}

func TestMetrosInRegionPartition(t *testing.T) {
	total := 0
	for _, r := range Regions() {
		ms := MetrosInRegion(r)
		if len(ms) == 0 {
			t.Errorf("region %q listed but empty", r)
		}
		for _, m := range ms {
			if m.Region != r {
				t.Errorf("metro %q in wrong region bucket", m.Code)
			}
		}
		total += len(ms)
	}
	if total != len(Metros()) {
		t.Errorf("regions partition %d metros, want %d", total, len(Metros()))
	}
}

func TestNearestMetro(t *testing.T) {
	// A point in Manhattan should resolve to nyc.
	if m := nearestMetro(Coord{40.78, -73.97}); m.Code != "nyc" {
		t.Errorf("nearestMetro(manhattan) = %q, want nyc", m.Code)
	}
	// Every metro is its own nearest metro.
	for _, m := range Metros() {
		if got := nearestMetro(m.Coord); got.Code != m.Code {
			t.Errorf("nearestMetro(%s) = %s, want itself", m.Code, got.Code)
		}
	}
}

func TestCoordValid(t *testing.T) {
	valid := []Coord{{0, 0}, {90, 180}, {-90, -180}, {45.5, -120.25}}
	for _, c := range valid {
		if !c.Valid() {
			t.Errorf("Coord %v should be valid", c)
		}
	}
	invalid := []Coord{{91, 0}, {0, 181}, {-90.01, 0}, {0, -180.5}}
	for _, c := range invalid {
		if c.Valid() {
			t.Errorf("Coord %v should be invalid", c)
		}
	}
}

// pathStretch models that fiber paths are not great circles: real
// routes detour through conduits, landing stations, and metro rings.
// Empirical studies place typical stretch between 1.2x and 2x.
const pathStretch = 1.4

// fiberRTT returns a realistic round-trip propagation delay between two
// points assuming typical fiber path stretch.
func fiberRTT(a, b Coord) time.Duration {
	ms := 2 * DistanceKm(a, b) * pathStretch / FiberSpeedKmPerMs
	return time.Duration(ms * float64(time.Millisecond))
}

// nearestMetro returns the metro closest to the given coordinate.
func nearestMetro(c Coord) Metro {
	best := metroTable[0]
	bestD := DistanceKm(c, best.Coord)
	for _, m := range metroTable[1:] {
		if d := DistanceKm(c, m.Coord); d < bestD {
			best, bestD = m, d
		}
	}
	return best
}
