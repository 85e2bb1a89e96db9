//go:build seeded

package lint

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestSeededRegressionsDynamic is the corpus's dynamic leg: each row's
// test runs under the race detector on two CPUs, once with the row's seed
// laid over the committed file through go test -overlay (it must fail) and
// once on the committed tree (it must pass). Rows sharing a test share its
// clean run. It shells out to go test once per run, so it sits behind a
// build tag:
//
//	go test -tags seeded -run SeededRegressionsDynamic ./internal/lint
func TestSeededRegressionsDynamic(t *testing.T) {
	root := moduleRoot(t)
	clean := map[string]func() (string, error){}
	for _, row := range seededRegressions {
		key := row.dir + " " + row.test
		if clean[key] == nil {
			clean[key] = sync.OnceValues(func() (string, error) { return raceTest(root, row, "") })
		}
	}
	for _, row := range seededRegressions {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(root, filepath.FromSlash(row.dir), row.file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			seeded := filepath.Join(t.TempDir(), row.file)
			if err := os.WriteFile(seeded, []byte(strings.Replace(string(b), row.old, row.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: seeded}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := seeded + ".json"
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}

			out, err := raceTest(root, row, overlayFile)
			switch {
			case err == nil:
				t.Errorf("%s passes with the seed in %s/%s:\n%s", row.test, row.dir, row.file, tail(out))
			case buildFailed.MatchString(out):
				t.Errorf("the seeded %s/%s does not build:\n%s", row.dir, row.file, tail(out))
			case row.hang && !strings.Contains(out, "panic: test timed out after "+hangTimeout):
				t.Errorf("%s fails with the seed in %s/%s, but not by hanging until the %s timeout:\n%s", row.test, row.dir, row.file, hangTimeout, tail(out))
			}
			if out, err := clean[row.dir+" "+row.test](); err != nil || !strings.Contains(out, "--- PASS: "+row.test+" ") {
				t.Errorf("%s does not pass on the committed tree (%v):\n%s", row.test, err, tail(out))
			}
		})
	}
}

// buildFailed matches go test's report of a package that never ran.
var buildFailed = regexp.MustCompile(`\[(build|setup) failed\]`)

// hangTimeout is a hang row's seeded -timeout: its test deadlocks, and the
// clean runs of the hang rows' tests take well under a second each under
// -race. Every other run keeps 30 s.
const hangTimeout = "5s"

// raceTest runs the row's dynamic test alone under -race on two CPUs,
// through the overlay file when one is given, and returns go test's output.
func raceTest(root string, row seededRegression, overlay string) (string, error) {
	var run []string
	for _, part := range strings.Split(row.test, "/") {
		run = append(run, "^"+regexp.QuoteMeta(part)+"$")
	}
	timeout := "30s"
	if overlay != "" && row.hang {
		timeout = hangTimeout
	}
	args := []string{"test", "-race", "-cpu", "2", "-count=1", "-timeout", timeout, "-v", "-run", strings.Join(run, "/")}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	cmd := exec.Command("go", append(args, "./"+row.dir)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// tail keeps the last lines of a go test transcript for a failure message.
func tail(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > 30 {
		lines = lines[len(lines)-30:]
	}
	return strings.Join(lines, "\n")
}
