package gpu

import (
	"encoding/json"
	"fmt"
	"io"
)

// LoadConfig reads a machine configuration from JSON. Unknown fields are
// rejected so typos in config files fail loudly; zero/omitted fields take the
// Table II defaults as usual. Example:
//
//	{
//	  "Cores": 120,
//	  "L2Slices": 48,
//	  "Channels": 24,
//	  "MeasureCycles": 50000
//	}
func LoadConfig(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("gpu: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate rejects configurations the simulator cannot build.
func (c Config) Validate() error {
	chk := func(name string, v int64) error {
		if v < 0 {
			return fmt.Errorf("gpu: config field %s must not be negative (got %d)", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Cores", int64(c.Cores)},
		{"L2Slices", int64(c.L2Slices)},
		{"Channels", int64(c.Channels)},
		{"L1KB", int64(c.L1KB)},
		{"L2KB", int64(c.L2KB)},
		{"WarmupCycles", c.WarmupCycles},
		{"MeasureCycles", c.MeasureCycles},
		{"MaxOutstanding", int64(c.MaxOutstanding)},
	} {
		if err := chk(f.name, f.v); err != nil {
			return err
		}
	}
	d := c.WithDefaults()
	if d.L2Slices > 0 && d.Channels > d.L2Slices {
		return fmt.Errorf("gpu: more channels (%d) than L2 slices (%d)", d.Channels, d.L2Slices)
	}
	return nil
}
