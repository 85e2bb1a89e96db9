package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"nautilus/internal/core"
	"nautilus/internal/obs"
)

// TestCompareIgnores: -compare honours -workload, -seed, -cycles and the
// telemetry flags; every other flag set beside it is named, so the command
// exits 2 instead of silently ignoring it.
func TestCompareIgnores(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-compare"}, nil},
		{[]string{"-compare", "-workload", "FTU", "-seed", "3", "-cycles", "2"}, nil},
		{[]string{"-compare", "-trace", "t", "-metrics", "m.json", "-live", "l", "-listen", "localhost:0"}, nil},
		{[]string{"-compare", "-mem-gb", "1"}, []string{"-mem-gb"}},
		{[]string{"-compare", "-approach", "mat_all", "-workdir", "w", "-seed", "2"}, []string{"-approach", "-workdir"}},
		{[]string{"-compare", "-disk-gb", "1", "-max-records", "9", "-fuser", "enum", "-fuse-budget", "5"},
			[]string{"-disk-gb", "-fuse-budget", "-fuser", "-max-records"}},
		{[]string{"-compare", "-calibration", "c", "-tune-table", "t", "-calibrate-out", "o"},
			[]string{"-calibrate-out", "-calibration", "-tune-table"}},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("nautilus-run", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg := core.DefaultConfig("")
		registerFlags(fs, &cfg, new(obs.Telemetry))
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := compareIgnores(fs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: compareIgnores = %v, want %v", tc.args, got, tc.want)
		}
	}
}
