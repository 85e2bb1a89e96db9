package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// runMain, as the test binary's first argument, makes it run the command
// itself on the arguments that follow.
const runMain = "nautilus-plan-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRetiredFlagsExitTwo: the fusion-strategy flags left with the enum
// fuser, so the command rejects them as undefined flags, with usage and
// exit status 2, before it builds anything.
func TestRetiredFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-fuser", "enum"}, {"-fuse-budget", "5"}} {
		cmd := exec.Command(os.Args[0], append([]string{runMain}, args...)...)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("nautilus-plan %v: %v, want exit status 2\n%s", args, err, out)
		}
	}
}
