package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// CalibrationVersion is the on-disk schema version of calibration files.
// LoadCalibration rejects files written by a different major version so a
// stale or foreign file fails loudly instead of silently skewing plans.
const CalibrationVersion = 1

// A fitted channel's throughput, in FLOPs or bytes per second, must lie in
// [minThroughput, maxThroughput]; 0 marks a channel without a fit. Outside
// that range a file is corrupt or foreign, and the planner would turn it
// into overflowing or infinite costs (a 1e-300 B/s read channel makes every
// c_load of a real layer exceed an int64).
const (
	minThroughput = 1.0
	maxThroughput = 1e18
)

// ChannelFit summarizes the robust regression of one throughput channel:
// how many samples went in, how many the outlier trim discarded, the
// fitted throughput (median of per-sample work/time ratios after
// trimming), and the surviving samples' relative spread (MAD/median) —
// the fit's own noise estimate.
type ChannelFit struct {
	Samples    int     `json:"samples"`
	Trimmed    int     `json:"trimmed"`
	Throughput float64 `json:"throughput"`
	Spread     float64 `json:"spread"`
}

// Calibration is a measured hardware profile fitted from execution
// traces (internal/obs/calib): compute FLOP/s, store-read bytes/s, and
// store-write bytes/s. Apply overrides the static Hardware constants the
// planner would otherwise trust, closing the loop between the conformance
// replay's measurements and the MAT/FUSE cost model.
type Calibration struct {
	Version int `json:"version"`
	// Source names the run that produced the fit (workload, binary).
	Source string `json:"source,omitempty"`
	// CreatedUnixNs timestamps the fit (0 when unknown).
	CreatedUnixNs int64 `json:"created_unix_ns,omitempty"`

	// Compute is the FLOP/s channel (drives Hardware.FLOPSThroughput).
	Compute ChannelFit `json:"compute"`
	// Read is the store-read bytes/s channel (drives
	// Hardware.DiskThroughput, the constant behind c_load).
	Read ChannelFit `json:"read"`
	// Write is the store-append bytes/s channel. Reported for visibility
	// (checkpoint and materialization write costing); the cost model's
	// single DiskThroughput constant stays read-driven.
	Write ChannelFit `json:"write"`
}

// Apply returns base with every fitted constant overriding its static
// counterpart. Channels without a usable fit (zero throughput) leave the
// base value untouched, so a partial calibration degrades gracefully.
func (c *Calibration) Apply(base Hardware) Hardware {
	if c == nil {
		return base
	}
	hw := base
	if c.Compute.Throughput > 0 {
		hw.FLOPSThroughput = c.Compute.Throughput
	}
	if c.Read.Throughput > 0 {
		hw.DiskThroughput = c.Read.Throughput
	}
	return hw
}

// SaveCalibration writes the calibration as indented JSON at path,
// stamping the schema version.
func SaveCalibration(path string, c *Calibration) error {
	if c == nil {
		return fmt.Errorf("profile: save nil calibration")
	}
	cc := *c
	cc.Version = CalibrationVersion
	data, err := json.MarshalIndent(&cc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCalibration reads and validates a calibration file.
func LoadCalibration(path string) (*Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("profile: read calibration: %w", err)
	}
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("profile: parse calibration %s: %w", path, err)
	}
	if c.Version != CalibrationVersion {
		return nil, fmt.Errorf("profile: calibration %s has version %d, this build reads version %d — refit it (nautilus-run -calibrate-out)",
			path, c.Version, CalibrationVersion)
	}
	for _, ch := range []struct {
		name string
		fit  ChannelFit
	}{{"compute", c.Compute}, {"read", c.Read}, {"write", c.Write}} {
		if t := ch.fit.Throughput; math.IsNaN(t) || t < 0 || t > 0 && (t < minThroughput || t > maxThroughput) {
			return nil, fmt.Errorf("profile: calibration %s: %s throughput %g is outside [%g, %g] (0 for an unfitted channel)",
				path, ch.name, t, minThroughput, maxThroughput)
		}
	}
	if c.Compute.Throughput <= 0 && c.Read.Throughput <= 0 && c.Write.Throughput <= 0 {
		return nil, fmt.Errorf("profile: calibration %s fits no channel (all throughputs zero)", path)
	}
	return &c, nil
}

// LoadHardware loads a calibration file and applies it over base — the
// one-call path for CLIs planning against measured constants. An empty
// path returns base unchanged.
func LoadHardware(path string, base Hardware) (Hardware, error) {
	if path == "" {
		return base, nil
	}
	c, err := LoadCalibration(path)
	if err != nil {
		return base, err
	}
	return c.Apply(base), nil
}
