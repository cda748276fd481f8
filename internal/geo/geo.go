// Package geo provides geographic primitives used throughout PAINTER:
// coordinates, great-circle distance, speed-of-light-in-fiber latency
// conversion, and an embedded database of world metropolitan areas used
// to place PoPs, user groups, and measurement probes.
package geo

import (
	"fmt"
	"math"
)

// Coord is a point on the Earth's surface in decimal degrees.
type Coord struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

// Valid reports whether the coordinate lies within the legal lat/lon range.
func (c Coord) Valid() bool {
	return c.Lat >= -90 && c.Lat <= 90 && c.Lon >= -180 && c.Lon <= 180
}

func (c Coord) String() string {
	return fmt.Sprintf("(%.3f,%.3f)", c.Lat, c.Lon)
}

const (
	// EarthRadiusKm is the mean Earth radius.
	EarthRadiusKm = 6371.0

	// FiberSpeedKmPerMs is the propagation speed of light in optical
	// fiber (~2/3 c), expressed in km per millisecond. Used to convert
	// distances into best-case one-way latencies.
	FiberSpeedKmPerMs = 200.0
)

// DistanceKm returns the great-circle distance between a and b using the
// haversine formula.
func DistanceKm(a, b Coord) float64 {
	const degToRad = math.Pi / 180
	la1 := a.Lat * degToRad
	la2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// KmToMinRTTMs converts a distance to the minimum possible RTT in
// milliseconds (out and back at fiber speed, no stretch).
func KmToMinRTTMs(km float64) float64 { return 2 * km / FiberSpeedKmPerMs }
