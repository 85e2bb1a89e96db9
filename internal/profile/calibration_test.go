package profile

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadCalibrationRejectsImplausibleThroughputs feeds hand-made files
// whose throughputs parse but would drive the cost model to wrapped or
// infinite values. Each must be an error naming the channel: a 1e-300 B/s
// read channel used to load and turn LoadFLOPs(1024) into -2^63, a 1e-300
// FLOP/s compute channel made Seconds +Inf.
func TestLoadCalibrationRejectsImplausibleThroughputs(t *testing.T) {
	for _, tc := range []struct{ name, body, channel string }{
		{"tiny read", `{"version":1,"read":{"throughput":1e-300}}`, "read"},
		{"tiny compute", `{"version":1,"compute":{"throughput":1e-300}}`, "compute"},
		{"huge compute", `{"version":1,"compute":{"throughput":1e300},"read":{"throughput":1e9}}`, "compute"},
		{"negative write", `{"version":1,"compute":{"throughput":1e9},"write":{"throughput":-5}}`, "write"},
		{"sub-unit read", `{"version":1,"read":{"throughput":0.5}}`, "read"},
	} {
		path := filepath.Join(t.TempDir(), "calib.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCalibration(path); err == nil || !strings.Contains(err.Error(), tc.channel+" throughput") {
			t.Errorf("%s: want an error naming the %s channel, got %v", tc.name, tc.channel, err)
		}
	}
}

// TestLoadFLOPsSaturates: a throughput ratio beyond the int64 range gives
// the largest cost, not a wrapped negative one; ordinary ratios are exact.
func TestLoadFLOPsSaturates(t *testing.T) {
	if got := (Hardware{FLOPSThroughput: 1e12, DiskThroughput: 1e-300}).LoadFLOPs(1024); got != math.MaxInt64 {
		t.Errorf("LoadFLOPs(1024) at 1e-300 B/s = %d, want MaxInt64", got)
	}
	if got := (Hardware{FLOPSThroughput: 6e12, DiskThroughput: 6e10}).LoadFLOPs(1024); got != 102400 {
		t.Errorf("LoadFLOPs(1024) = %d, want 102400", got)
	}
	if got := (Hardware{}).LoadFLOPs(0); got != 0 {
		t.Errorf("LoadFLOPs(0) with no throughputs = %d, want 0", got)
	}
}

// FuzzLoadCalibration: any file either fails to load, or yields hardware
// (applied over the defaults, as LoadHardware does for the CLIs) whose
// LoadFLOPs, Seconds and IOSeconds are finite and non-negative from zero up
// to the largest int64. Never a panic. The committed corpus
// (testdata/fuzz/FuzzLoadCalibration) holds real and partial fits, the
// files of TestLoadCalibrationRejectsImplausibleThroughputs and malformed
// JSON; plain go test replays it.
func FuzzLoadCalibration(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "calib.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		hw, err := LoadHardware(path, DefaultHardware())
		if err != nil {
			return
		}
		for _, n := range []int64{0, 1, 1 << 20, math.MaxInt64} {
			if c := hw.LoadFLOPs(n); c < 0 {
				t.Fatalf("LoadFLOPs(%d) = %d with %+v", n, c, hw)
			}
			for _, s := range []float64{hw.Seconds(n), hw.IOSeconds(n)} {
				if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
					t.Fatalf("%d units take %g s with %+v", n, s, hw)
				}
			}
		}
	})
}
