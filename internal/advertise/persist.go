package advertise

import (
	"encoding/json"
	"fmt"
	"os"

	"painter/internal/bgp"
)

// configJSON is the on-disk format: one entry per prefix with its
// peering IDs, versioned so future format changes stay readable.
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

// UnmarshalJSON decodes the configuration.
func (c *Config) UnmarshalJSON(b []byte) error {
	var in configJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if in.Version != persistVersion {
		return fmt.Errorf("advertise: unsupported config version %d", in.Version)
	}
	c.Prefixes = make([][]bgp.IngressID, len(in.Prefixes))
	for i, ids := range in.Prefixes {
		s := make([]bgp.IngressID, len(ids))
		for j, id := range ids {
			if id < 0 {
				return fmt.Errorf("advertise: prefix %d has negative peering id %d", i, id)
			}
			s[j] = bgp.IngressID(id)
		}
		c.Prefixes[i] = s
	}
	return nil
}

// save writes the configuration to a file (0644).
func (c Config) save(path string) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// load reads a configuration from a file.
func load(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var c Config
	if err := json.Unmarshal(b, &c); err != nil {
		return Config{}, fmt.Errorf("advertise: %s: %w", path, err)
	}
	return c, nil
}
