package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"nautilus/internal/core"
)

// Output checks. Nautilus's optimizations are "logically equivalent SGD"
// (paper Section 5.2): whatever the plan, every candidate must reach the
// accuracy it reaches when trained alone the Current Practice way, bit for
// bit. One operation is one candidate in one cycle.

// paritySample is how many candidates every run re-trains the other way.
const paritySample = 2

// counterpart is the approach a workload's accuracies are checked against.
func counterpart(a core.Approach) core.Approach {
	if a == core.CurrentPractice {
		return core.Nautilus
	}
	return core.CurrentPractice
}

// diffAccs compares got against want on the (cycle, model) pairs want
// holds, returning one message per candidate-cycle that is missing or not
// bit-identical, and how many pairs it compared.
func diffAccs(what string, got, want []candAcc) (compared int, failures []string) {
	type key struct {
		cycle int
		model string
	}
	have := map[key]candAcc{}
	for _, a := range got {
		have[key{a.Cycle, a.Model}] = a
	}
	for _, w := range want {
		compared++
		g, ok := have[key{w.Cycle, w.Model}]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: cycle %d %s missing", what, w.Cycle, w.Model))
		case !g.same(w):
			failures = append(failures, fmt.Sprintf("%s: cycle %d %s val_acc %v (loss bits %x), want %v (%x)", what, w.Cycle, w.Model, g.Acc, g.LossBits, w.Acc, w.LossBits))
		}
	}
	return compared, failures
}

// sampleParity re-trains a seeded sample of the candidates under the
// counterpart approach, in a session of their own, and compares. Current
// Practice trains candidates independently, so a sub-workload reproduces
// exactly what those candidates do in the full one; all=true re-trains
// every candidate.
func sampleParity(e *env, tw trainWorkload, got []candAcc, all bool) (compared int, failures []string, wall float64, err error) {
	var subset []int
	if n := tw.spec.NumModels(); !all && n > paritySample {
		subset = rand.New(rand.NewSource(e.seed)).Perm(n)[:paritySample]
		sort.Ints(subset)
	}
	other := counterpart(tw.approach)
	ref, err := tw.session(e, other, subset)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("parity session under %s: %w", other, err)
	}
	compared, failures = diffAccs("parity vs "+string(other), got, ref.accs)
	return compared, failures, ref.wall, nil
}

func goldenPath(e *env, name string) string {
	return filepath.Join(e.root, "bench", "golden", fmt.Sprintf("%s.seed%d.json", name, e.seed))
}

// checkGolden compares against the committed Current Practice accuracies
// for this seed. ok is false when no golden file exists for the seed: the
// check is then reported as skipped, never as passed.
func checkGolden(e *env, name string, got []candAcc) (ok bool, compared int, failures []string, err error) {
	b, err := os.ReadFile(goldenPath(e, name))
	if errors.Is(err, fs.ErrNotExist) {
		return false, 0, nil, nil
	}
	if err != nil {
		return false, 0, nil, err
	}
	var want []candAcc
	if err := json.Unmarshal(b, &want); err != nil {
		return false, 0, nil, fmt.Errorf("%s: %w", goldenPath(e, name), err)
	}
	compared, failures = diffAccs("golden", got, want)
	if len(got) != len(want) {
		failures = append(failures, fmt.Sprintf("golden: %d results, want %d", len(got), len(want)))
	}
	return true, compared, failures, nil
}

// writeGolden trains the workload's candidates under Current Practice and
// commits their accuracies as the reference for this seed.
func writeGolden(e *env, w workload) error {
	ref, err := w.train.session(e, core.CurrentPractice, nil)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(ref.accs, "", " ")
	if err != nil {
		return err
	}
	path := goldenPath(e, w.name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
