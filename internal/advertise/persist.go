package advertise

import "encoding/json"

// configJSON is the wire format: one entry per prefix with its peering
// IDs, versioned so future format changes stay readable.
type configJSON struct {
	Version  int       `json:"version"`
	Prefixes [][]int32 `json:"prefixes"`
}

const persistVersion = 1

// MarshalJSON encodes the configuration.
func (c Config) MarshalJSON() ([]byte, error) {
	out := configJSON{Version: persistVersion, Prefixes: make([][]int32, len(c.Prefixes))}
	for i, s := range c.Prefixes {
		ids := make([]int32, len(s))
		for j, id := range s {
			ids[j] = int32(id)
		}
		out.Prefixes[i] = ids
	}
	return json.Marshal(out)
}
