package geo

import (
	"fmt"
	"sort"
)

// Region identifies a coarse world region, used for regional prefix
// advertisements and for grouping UGs when computing PoP candidate sets.
type Region string

// World regions. The granularity mirrors how clouds organize regional
// service offerings (§5.1.2: "regional" advertisements).
const (
	RegionNorthAmericaEast Region = "na-east"
	RegionNorthAmericaWest Region = "na-west"
	RegionNorthAmericaCent Region = "na-central"
	RegionSouthAmerica     Region = "sa"
	RegionEuropeWest       Region = "eu-west"
	RegionEuropeEast       Region = "eu-east"
	RegionMiddleEast       Region = "me"
	RegionAfrica           Region = "africa"
	RegionAsiaEast         Region = "asia-east"
	RegionAsiaSouth        Region = "asia-south"
	RegionAsiaSouthEast    Region = "asia-se"
	RegionOceania          Region = "oceania"
)

// Metro is a metropolitan area: the unit of geographic placement for
// PoPs, user groups, and probes.
type Metro struct {
	Code   string // short unique code, e.g. "nyc"
	Coord  Coord
	Region Region
	// Weight is a rough relative population/traffic weight used when
	// sampling user groups; it does not need to be exact, only to give
	// plausible global traffic skew.
	Weight float64
}

func (m Metro) String() string { return m.Code }

// metroTable is the embedded metro database: 111 world metros with
// coordinates accurate to city granularity.
var metroTable = []Metro{
	// North America — East
	{"nyc", Coord{40.71, -74.01}, RegionNorthAmericaEast, 20}, // New York
	{"bos", Coord{42.36, -71.06}, RegionNorthAmericaEast, 5},  // Boston
	{"was", Coord{38.91, -77.04}, RegionNorthAmericaEast, 6},  // Washington DC
	{"ash", Coord{39.04, -77.49}, RegionNorthAmericaEast, 4},  // Ashburn
	{"phl", Coord{39.95, -75.17}, RegionNorthAmericaEast, 6},  // Philadelphia
	{"atl", Coord{33.75, -84.39}, RegionNorthAmericaEast, 6},  // Atlanta
	{"mia", Coord{25.76, -80.19}, RegionNorthAmericaEast, 6},  // Miami
	{"clt", Coord{35.23, -80.84}, RegionNorthAmericaEast, 3},  // Charlotte
	{"pit", Coord{40.44, -79.99}, RegionNorthAmericaEast, 2},  // Pittsburgh
	{"tor", Coord{43.65, -79.38}, RegionNorthAmericaEast, 6},  // Toronto
	{"mtl", Coord{45.50, -73.57}, RegionNorthAmericaEast, 4},  // Montreal
	// North America — Central
	{"chi", Coord{41.88, -87.63}, RegionNorthAmericaCent, 9},  // Chicago
	{"dal", Coord{32.78, -96.80}, RegionNorthAmericaCent, 7},  // Dallas
	{"hou", Coord{29.76, -95.37}, RegionNorthAmericaCent, 7},  // Houston
	{"msp", Coord{44.98, -93.27}, RegionNorthAmericaCent, 3},  // Minneapolis
	{"stl", Coord{38.63, -90.20}, RegionNorthAmericaCent, 2},  // St. Louis
	{"kcy", Coord{39.10, -94.58}, RegionNorthAmericaCent, 2},  // Kansas City
	{"den", Coord{39.74, -104.99}, RegionNorthAmericaCent, 3}, // Denver
	{"mex", Coord{19.43, -99.13}, RegionNorthAmericaCent, 12}, // Mexico City
	// North America — West
	{"lax", Coord{34.05, -118.24}, RegionNorthAmericaWest, 13}, // Los Angeles
	{"sfo", Coord{37.77, -122.42}, RegionNorthAmericaWest, 5},  // San Francisco
	{"sjc", Coord{37.34, -121.89}, RegionNorthAmericaWest, 3},  // San Jose
	{"sea", Coord{47.61, -122.33}, RegionNorthAmericaWest, 4},  // Seattle
	{"pdx", Coord{45.52, -122.68}, RegionNorthAmericaWest, 2},  // Portland
	{"phx", Coord{33.45, -112.07}, RegionNorthAmericaWest, 5},  // Phoenix
	{"las", Coord{36.17, -115.14}, RegionNorthAmericaWest, 2},  // Las Vegas
	{"slc", Coord{40.76, -111.89}, RegionNorthAmericaWest, 1},  // Salt Lake City
	{"yvr", Coord{49.28, -123.12}, RegionNorthAmericaWest, 3},  // Vancouver
	// South America
	{"gru", Coord{-23.55, -46.63}, RegionSouthAmerica, 22}, // Sao Paulo
	{"rio", Coord{-22.91, -43.17}, RegionSouthAmerica, 13}, // Rio de Janeiro
	{"bog", Coord{4.71, -74.07}, RegionSouthAmerica, 10},   // Bogota
	{"lim", Coord{-12.05, -77.04}, RegionSouthAmerica, 10}, // Lima
	{"scl", Coord{-33.45, -70.67}, RegionSouthAmerica, 7},  // Santiago
	{"eze", Coord{-34.60, -58.38}, RegionSouthAmerica, 15}, // Buenos Aires
	{"ccs", Coord{10.48, -66.88}, RegionSouthAmerica, 3},   // Caracas
	{"uio", Coord{-0.18, -78.47}, RegionSouthAmerica, 2},   // Quito
	{"mvd", Coord{-34.90, -56.16}, RegionSouthAmerica, 2},  // Montevideo
	// Europe — West
	{"lon", Coord{51.51, -0.13}, RegionEuropeWest, 14}, // London
	{"man", Coord{53.48, -2.24}, RegionEuropeWest, 3},  // Manchester
	{"dub", Coord{53.35, -6.26}, RegionEuropeWest, 2},  // Dublin
	{"par", Coord{48.86, 2.35}, RegionEuropeWest, 11},  // Paris
	{"ams", Coord{52.37, 4.90}, RegionEuropeWest, 3},   // Amsterdam
	{"bru", Coord{50.85, 4.35}, RegionEuropeWest, 2},   // Brussels
	{"fra", Coord{50.11, 8.68}, RegionEuropeWest, 3},   // Frankfurt
	{"muc", Coord{48.14, 11.58}, RegionEuropeWest, 3},  // Munich
	{"ber", Coord{52.52, 13.40}, RegionEuropeWest, 4},  // Berlin
	{"ham", Coord{53.55, 9.99}, RegionEuropeWest, 2},   // Hamburg
	{"zrh", Coord{47.38, 8.54}, RegionEuropeWest, 2},   // Zurich
	{"gva", Coord{46.20, 6.14}, RegionEuropeWest, 1},   // Geneva
	{"mad", Coord{40.42, -3.70}, RegionEuropeWest, 7},  // Madrid
	{"bcn", Coord{41.39, 2.17}, RegionEuropeWest, 5},   // Barcelona
	{"lis", Coord{38.72, -9.14}, RegionEuropeWest, 3},  // Lisbon
	{"mil", Coord{45.46, 9.19}, RegionEuropeWest, 4},   // Milan
	{"rom", Coord{41.90, 12.50}, RegionEuropeWest, 4},  // Rome
	{"cph", Coord{55.68, 12.57}, RegionEuropeWest, 2},  // Copenhagen
	{"osl", Coord{59.91, 10.75}, RegionEuropeWest, 1},  // Oslo
	{"sto", Coord{59.33, 18.07}, RegionEuropeWest, 2},  // Stockholm
	{"hel", Coord{60.17, 24.94}, RegionEuropeWest, 1},  // Helsinki
	{"vie", Coord{48.21, 16.37}, RegionEuropeWest, 2},  // Vienna
	// Europe — East
	{"prg", Coord{50.08, 14.44}, RegionEuropeEast, 2},  // Prague
	{"waw", Coord{52.23, 21.01}, RegionEuropeEast, 3},  // Warsaw
	{"bud", Coord{47.50, 19.04}, RegionEuropeEast, 2},  // Budapest
	{"buh", Coord{44.43, 26.10}, RegionEuropeEast, 2},  // Bucharest
	{"sof", Coord{42.70, 23.32}, RegionEuropeEast, 1},  // Sofia
	{"ath", Coord{37.98, 23.73}, RegionEuropeEast, 3},  // Athens
	{"kie", Coord{50.45, 30.52}, RegionEuropeEast, 3},  // Kyiv
	{"ist", Coord{41.01, 28.98}, RegionEuropeEast, 15}, // Istanbul
	// Middle East
	{"tlv", Coord{32.09, 34.78}, RegionMiddleEast, 4}, // Tel Aviv
	{"dxb", Coord{25.20, 55.27}, RegionMiddleEast, 3}, // Dubai
	{"doh", Coord{25.29, 51.53}, RegionMiddleEast, 1}, // Doha
	{"ruh", Coord{24.71, 46.68}, RegionMiddleEast, 7}, // Riyadh
	{"amm", Coord{31.96, 35.95}, RegionMiddleEast, 2}, // Amman
	{"bah", Coord{26.23, 50.59}, RegionMiddleEast, 1}, // Manama
	// Africa
	{"cai", Coord{30.04, 31.24}, RegionAfrica, 20},  // Cairo
	{"lag", Coord{6.52, 3.38}, RegionAfrica, 15},    // Lagos
	{"nbo", Coord{-1.29, 36.82}, RegionAfrica, 5},   // Nairobi
	{"jnb", Coord{-26.20, 28.05}, RegionAfrica, 10}, // Johannesburg
	{"cpt", Coord{-33.92, 18.42}, RegionAfrica, 4},  // Cape Town
	{"acc", Coord{5.60, -0.19}, RegionAfrica, 3},    // Accra
	{"cmn", Coord{33.57, -7.59}, RegionAfrica, 4},   // Casablanca
	{"tun", Coord{36.81, 10.18}, RegionAfrica, 2},   // Tunis
	// Asia — East
	{"tyo", Coord{35.68, 139.69}, RegionAsiaEast, 37}, // Tokyo
	{"osa", Coord{34.69, 135.50}, RegionAsiaEast, 19}, // Osaka
	{"sel", Coord{37.57, 126.98}, RegionAsiaEast, 25}, // Seoul
	{"pek", Coord{39.90, 116.40}, RegionAsiaEast, 20}, // Beijing
	{"sha", Coord{31.23, 121.47}, RegionAsiaEast, 27}, // Shanghai
	{"can", Coord{23.13, 113.26}, RegionAsiaEast, 13}, // Guangzhou
	{"hkg", Coord{22.32, 114.17}, RegionAsiaEast, 7},  // Hong Kong
	{"tpe", Coord{25.03, 121.57}, RegionAsiaEast, 7},  // Taipei
	// Asia — South
	{"bom", Coord{19.08, 72.88}, RegionAsiaSouth, 20}, // Mumbai
	{"del", Coord{28.70, 77.10}, RegionAsiaSouth, 30}, // Delhi
	{"maa", Coord{13.08, 80.27}, RegionAsiaSouth, 10}, // Chennai
	{"blr", Coord{12.97, 77.59}, RegionAsiaSouth, 12}, // Bangalore
	{"hyd", Coord{17.39, 78.49}, RegionAsiaSouth, 9},  // Hyderabad
	{"ccu", Coord{22.57, 88.36}, RegionAsiaSouth, 14}, // Kolkata
	{"khi", Coord{24.86, 67.00}, RegionAsiaSouth, 15}, // Karachi
	{"dac", Coord{23.81, 90.41}, RegionAsiaSouth, 21}, // Dhaka
	{"cmb", Coord{6.93, 79.85}, RegionAsiaSouth, 2},   // Colombo
	// Asia — Southeast
	{"sin", Coord{1.35, 103.82}, RegionAsiaSouthEast, 6},   // Singapore
	{"kul", Coord{3.14, 101.69}, RegionAsiaSouthEast, 7},   // Kuala Lumpur
	{"bkk", Coord{13.76, 100.50}, RegionAsiaSouthEast, 10}, // Bangkok
	{"sgn", Coord{10.82, 106.63}, RegionAsiaSouthEast, 9},  // Ho Chi Minh City
	{"han", Coord{21.03, 105.85}, RegionAsiaSouthEast, 8},  // Hanoi
	{"mnl", Coord{14.60, 120.98}, RegionAsiaSouthEast, 13}, // Manila
	{"cgk", Coord{-6.21, 106.85}, RegionAsiaSouthEast, 10}, // Jakarta
	{"pnh", Coord{11.56, 104.92}, RegionAsiaSouthEast, 2},  // Phnom Penh
	// Oceania
	{"syd", Coord{-33.87, 151.21}, RegionOceania, 5}, // Sydney
	{"mel", Coord{-37.81, 144.96}, RegionOceania, 5}, // Melbourne
	{"bne", Coord{-27.47, 153.03}, RegionOceania, 2}, // Brisbane
	{"per", Coord{-31.95, 115.86}, RegionOceania, 2}, // Perth
	{"akl", Coord{-36.85, 174.76}, RegionOceania, 1}, // Auckland
}

var metroByCode map[string]*Metro

func init() {
	metroByCode = make(map[string]*Metro, len(metroTable))
	for i := range metroTable {
		m := &metroTable[i]
		if _, dup := metroByCode[m.Code]; dup {
			panic("geo: duplicate metro code " + m.Code)
		}
		if !m.Coord.Valid() {
			panic("geo: invalid coordinate for metro " + m.Code)
		}
		metroByCode[m.Code] = m
	}
}

// Metros returns all metros in the embedded database, sorted by code.
// The returned slice is freshly allocated; callers may modify it.
func Metros() []Metro {
	out := make([]Metro, len(metroTable))
	copy(out, metroTable)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// MetroByCode looks up a metro by its short code.
func MetroByCode(code string) (Metro, error) {
	if m, ok := metroByCode[code]; ok {
		return *m, nil
	}
	return Metro{}, fmt.Errorf("geo: unknown metro %q", code)
}

// MetrosInRegion returns the metros belonging to a region, sorted by code.
func MetrosInRegion(r Region) []Metro {
	var out []Metro
	for _, m := range metroTable {
		if m.Region == r {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Regions returns all regions that have at least one metro, sorted.
func Regions() []Region {
	seen := make(map[Region]bool)
	for _, m := range metroTable {
		seen[m.Region] = true
	}
	out := make([]Region, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
