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
	Name   string
	Coord  Coord
	Region Region
	// Weight is a rough relative population/traffic weight used when
	// sampling user groups; it does not need to be exact, only to give
	// plausible global traffic skew.
	Weight float64
}

func (m Metro) String() string { return m.Code }

// metroTable is the embedded metro database: 120 world metros with
// coordinates accurate to city granularity.
var metroTable = []Metro{
	// North America — East
	{"nyc", "New York", Coord{40.71, -74.01}, RegionNorthAmericaEast, 20},
	{"bos", "Boston", Coord{42.36, -71.06}, RegionNorthAmericaEast, 5},
	{"was", "Washington DC", Coord{38.91, -77.04}, RegionNorthAmericaEast, 6},
	{"ash", "Ashburn", Coord{39.04, -77.49}, RegionNorthAmericaEast, 4},
	{"phl", "Philadelphia", Coord{39.95, -75.17}, RegionNorthAmericaEast, 6},
	{"atl", "Atlanta", Coord{33.75, -84.39}, RegionNorthAmericaEast, 6},
	{"mia", "Miami", Coord{25.76, -80.19}, RegionNorthAmericaEast, 6},
	{"clt", "Charlotte", Coord{35.23, -80.84}, RegionNorthAmericaEast, 3},
	{"pit", "Pittsburgh", Coord{40.44, -79.99}, RegionNorthAmericaEast, 2},
	{"tor", "Toronto", Coord{43.65, -79.38}, RegionNorthAmericaEast, 6},
	{"mtl", "Montreal", Coord{45.50, -73.57}, RegionNorthAmericaEast, 4},
	// North America — Central
	{"chi", "Chicago", Coord{41.88, -87.63}, RegionNorthAmericaCent, 9},
	{"dal", "Dallas", Coord{32.78, -96.80}, RegionNorthAmericaCent, 7},
	{"hou", "Houston", Coord{29.76, -95.37}, RegionNorthAmericaCent, 7},
	{"msp", "Minneapolis", Coord{44.98, -93.27}, RegionNorthAmericaCent, 3},
	{"stl", "St. Louis", Coord{38.63, -90.20}, RegionNorthAmericaCent, 2},
	{"kcy", "Kansas City", Coord{39.10, -94.58}, RegionNorthAmericaCent, 2},
	{"den", "Denver", Coord{39.74, -104.99}, RegionNorthAmericaCent, 3},
	{"mex", "Mexico City", Coord{19.43, -99.13}, RegionNorthAmericaCent, 12},
	// North America — West
	{"lax", "Los Angeles", Coord{34.05, -118.24}, RegionNorthAmericaWest, 13},
	{"sfo", "San Francisco", Coord{37.77, -122.42}, RegionNorthAmericaWest, 5},
	{"sjc", "San Jose", Coord{37.34, -121.89}, RegionNorthAmericaWest, 3},
	{"sea", "Seattle", Coord{47.61, -122.33}, RegionNorthAmericaWest, 4},
	{"pdx", "Portland", Coord{45.52, -122.68}, RegionNorthAmericaWest, 2},
	{"phx", "Phoenix", Coord{33.45, -112.07}, RegionNorthAmericaWest, 5},
	{"las", "Las Vegas", Coord{36.17, -115.14}, RegionNorthAmericaWest, 2},
	{"slc", "Salt Lake City", Coord{40.76, -111.89}, RegionNorthAmericaWest, 1},
	{"yvr", "Vancouver", Coord{49.28, -123.12}, RegionNorthAmericaWest, 3},
	// South America
	{"gru", "Sao Paulo", Coord{-23.55, -46.63}, RegionSouthAmerica, 22},
	{"rio", "Rio de Janeiro", Coord{-22.91, -43.17}, RegionSouthAmerica, 13},
	{"bog", "Bogota", Coord{4.71, -74.07}, RegionSouthAmerica, 10},
	{"lim", "Lima", Coord{-12.05, -77.04}, RegionSouthAmerica, 10},
	{"scl", "Santiago", Coord{-33.45, -70.67}, RegionSouthAmerica, 7},
	{"eze", "Buenos Aires", Coord{-34.60, -58.38}, RegionSouthAmerica, 15},
	{"ccs", "Caracas", Coord{10.48, -66.88}, RegionSouthAmerica, 3},
	{"uio", "Quito", Coord{-0.18, -78.47}, RegionSouthAmerica, 2},
	{"mvd", "Montevideo", Coord{-34.90, -56.16}, RegionSouthAmerica, 2},
	// Europe — West
	{"lon", "London", Coord{51.51, -0.13}, RegionEuropeWest, 14},
	{"man", "Manchester", Coord{53.48, -2.24}, RegionEuropeWest, 3},
	{"dub", "Dublin", Coord{53.35, -6.26}, RegionEuropeWest, 2},
	{"par", "Paris", Coord{48.86, 2.35}, RegionEuropeWest, 11},
	{"ams", "Amsterdam", Coord{52.37, 4.90}, RegionEuropeWest, 3},
	{"bru", "Brussels", Coord{50.85, 4.35}, RegionEuropeWest, 2},
	{"fra", "Frankfurt", Coord{50.11, 8.68}, RegionEuropeWest, 3},
	{"muc", "Munich", Coord{48.14, 11.58}, RegionEuropeWest, 3},
	{"ber", "Berlin", Coord{52.52, 13.40}, RegionEuropeWest, 4},
	{"ham", "Hamburg", Coord{53.55, 9.99}, RegionEuropeWest, 2},
	{"zrh", "Zurich", Coord{47.38, 8.54}, RegionEuropeWest, 2},
	{"gva", "Geneva", Coord{46.20, 6.14}, RegionEuropeWest, 1},
	{"mad", "Madrid", Coord{40.42, -3.70}, RegionEuropeWest, 7},
	{"bcn", "Barcelona", Coord{41.39, 2.17}, RegionEuropeWest, 5},
	{"lis", "Lisbon", Coord{38.72, -9.14}, RegionEuropeWest, 3},
	{"mil", "Milan", Coord{45.46, 9.19}, RegionEuropeWest, 4},
	{"rom", "Rome", Coord{41.90, 12.50}, RegionEuropeWest, 4},
	{"cph", "Copenhagen", Coord{55.68, 12.57}, RegionEuropeWest, 2},
	{"osl", "Oslo", Coord{59.91, 10.75}, RegionEuropeWest, 1},
	{"sto", "Stockholm", Coord{59.33, 18.07}, RegionEuropeWest, 2},
	{"hel", "Helsinki", Coord{60.17, 24.94}, RegionEuropeWest, 1},
	{"vie", "Vienna", Coord{48.21, 16.37}, RegionEuropeWest, 2},
	// Europe — East
	{"prg", "Prague", Coord{50.08, 14.44}, RegionEuropeEast, 2},
	{"waw", "Warsaw", Coord{52.23, 21.01}, RegionEuropeEast, 3},
	{"bud", "Budapest", Coord{47.50, 19.04}, RegionEuropeEast, 2},
	{"buh", "Bucharest", Coord{44.43, 26.10}, RegionEuropeEast, 2},
	{"sof", "Sofia", Coord{42.70, 23.32}, RegionEuropeEast, 1},
	{"ath", "Athens", Coord{37.98, 23.73}, RegionEuropeEast, 3},
	{"kie", "Kyiv", Coord{50.45, 30.52}, RegionEuropeEast, 3},
	{"ist", "Istanbul", Coord{41.01, 28.98}, RegionEuropeEast, 15},
	// Middle East
	{"tlv", "Tel Aviv", Coord{32.09, 34.78}, RegionMiddleEast, 4},
	{"dxb", "Dubai", Coord{25.20, 55.27}, RegionMiddleEast, 3},
	{"doh", "Doha", Coord{25.29, 51.53}, RegionMiddleEast, 1},
	{"ruh", "Riyadh", Coord{24.71, 46.68}, RegionMiddleEast, 7},
	{"amm", "Amman", Coord{31.96, 35.95}, RegionMiddleEast, 2},
	{"bah", "Manama", Coord{26.23, 50.59}, RegionMiddleEast, 1},
	// Africa
	{"cai", "Cairo", Coord{30.04, 31.24}, RegionAfrica, 20},
	{"lag", "Lagos", Coord{6.52, 3.38}, RegionAfrica, 15},
	{"nbo", "Nairobi", Coord{-1.29, 36.82}, RegionAfrica, 5},
	{"jnb", "Johannesburg", Coord{-26.20, 28.05}, RegionAfrica, 10},
	{"cpt", "Cape Town", Coord{-33.92, 18.42}, RegionAfrica, 4},
	{"acc", "Accra", Coord{5.60, -0.19}, RegionAfrica, 3},
	{"cmn", "Casablanca", Coord{33.57, -7.59}, RegionAfrica, 4},
	{"tun", "Tunis", Coord{36.81, 10.18}, RegionAfrica, 2},
	// Asia — East
	{"tyo", "Tokyo", Coord{35.68, 139.69}, RegionAsiaEast, 37},
	{"osa", "Osaka", Coord{34.69, 135.50}, RegionAsiaEast, 19},
	{"sel", "Seoul", Coord{37.57, 126.98}, RegionAsiaEast, 25},
	{"pek", "Beijing", Coord{39.90, 116.40}, RegionAsiaEast, 20},
	{"sha", "Shanghai", Coord{31.23, 121.47}, RegionAsiaEast, 27},
	{"can", "Guangzhou", Coord{23.13, 113.26}, RegionAsiaEast, 13},
	{"hkg", "Hong Kong", Coord{22.32, 114.17}, RegionAsiaEast, 7},
	{"tpe", "Taipei", Coord{25.03, 121.57}, RegionAsiaEast, 7},
	// Asia — South
	{"bom", "Mumbai", Coord{19.08, 72.88}, RegionAsiaSouth, 20},
	{"del", "Delhi", Coord{28.70, 77.10}, RegionAsiaSouth, 30},
	{"maa", "Chennai", Coord{13.08, 80.27}, RegionAsiaSouth, 10},
	{"blr", "Bangalore", Coord{12.97, 77.59}, RegionAsiaSouth, 12},
	{"hyd", "Hyderabad", Coord{17.39, 78.49}, RegionAsiaSouth, 9},
	{"ccu", "Kolkata", Coord{22.57, 88.36}, RegionAsiaSouth, 14},
	{"khi", "Karachi", Coord{24.86, 67.00}, RegionAsiaSouth, 15},
	{"dac", "Dhaka", Coord{23.81, 90.41}, RegionAsiaSouth, 21},
	{"cmb", "Colombo", Coord{6.93, 79.85}, RegionAsiaSouth, 2},
	// Asia — Southeast
	{"sin", "Singapore", Coord{1.35, 103.82}, RegionAsiaSouthEast, 6},
	{"kul", "Kuala Lumpur", Coord{3.14, 101.69}, RegionAsiaSouthEast, 7},
	{"bkk", "Bangkok", Coord{13.76, 100.50}, RegionAsiaSouthEast, 10},
	{"sgn", "Ho Chi Minh City", Coord{10.82, 106.63}, RegionAsiaSouthEast, 9},
	{"han", "Hanoi", Coord{21.03, 105.85}, RegionAsiaSouthEast, 8},
	{"mnl", "Manila", Coord{14.60, 120.98}, RegionAsiaSouthEast, 13},
	{"cgk", "Jakarta", Coord{-6.21, 106.85}, RegionAsiaSouthEast, 10},
	{"pnh", "Phnom Penh", Coord{11.56, 104.92}, RegionAsiaSouthEast, 2},
	// Oceania
	{"syd", "Sydney", Coord{-33.87, 151.21}, RegionOceania, 5},
	{"mel", "Melbourne", Coord{-37.81, 144.96}, RegionOceania, 5},
	{"bne", "Brisbane", Coord{-27.47, 153.03}, RegionOceania, 2},
	{"per", "Perth", Coord{-31.95, 115.86}, RegionOceania, 2},
	{"akl", "Auckland", Coord{-36.85, 174.76}, RegionOceania, 1},
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
