// Command bench is the repository's end-to-end benchmark: six workloads,
// each a closed loop in one process, measured as repeated sessions whose
// outputs are checked. See README.md for the workloads, the metrics and
// which layer is expected to move which number.
//
//	go run ./bench                        every workload, untraced
//	go run ./bench -traced                ... then the traced pass
//	go run ./bench -aa                    two untraced sets, compared
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// The last form is the one BENCHMARK.json names: one workload, and as the
// last line of standard output one JSON object with the end-to-end
// (--trace 0) or per-layer (--trace 1) metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"nautilus/internal/core"
	"nautilus/internal/tensor"
	"nautilus/internal/tensor/tune"
)

// minSessions is the fewest sessions a run takes its medians over.
const minSessions = 3

// runResult is one workload's outcome in one pass.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Sessions  int                `json:"sessions"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"`
	// SessionS holds the session_s samples the medians were taken over.
	SessionS []float64 `json:"session_s_samples"`
	// Counts are the exact counts two runs of the same code must agree on.
	Counts   map[string]float64 `json:"exact_counts,omitempty"`
	Checks   []string           `json:"checks"`
	Failures []string           `json:"failures,omitempty"`

	accs []candAcc
}

// exactCounts are the per-layer counts -aa requires to repeat exactly.
var exactCounts = []string{"exec.train_steps", "exec.compute_flops", "storage.bytes_written", "opt.plan_cost"}

func (r *runResult) fail(msgs ...string) {
	r.Failed += len(msgs)
	r.Failures = append(r.Failures, msgs...)
}

// sameOutputs compares a later session's outputs with the first one's: the
// sessions of one run get the same inputs and must agree.
func sameOutputs(i int, s, first *sessionResult) []string {
	what := fmt.Sprintf("session %d vs session 1", i+1)
	_, failures := diffAccs(what, s.accs, first.accs)
	for j, p := range s.plans {
		if j >= len(first.plans) || p.cost != first.plans[j].cost {
			failures = append(failures, fmt.Sprintf("%s: replan %d costs %d", what, j+1, p.cost))
		}
	}
	return failures
}

// collect folds the sessions' operation counts and output checks into r.
func (r *runResult) collect(sessions []*sessionResult) {
	for i, s := range sessions {
		r.Attempted += s.ops
		r.fail(s.failures...)
		if i > 0 {
			r.fail(sameOutputs(i, s, sessions[0])...)
		}
	}
	for _, p := range sessions[0].plans {
		if err := p.check(); err != nil {
			r.fail(fmt.Sprintf("case %d step %d: %v", p.planCase+1, p.step, err))
		}
	}
	if n := len(sessions[0].plans); n > 0 {
		r.Checks = append(r.Checks, fmt.Sprintf("%d plans re-verified (verify.Groups, B_disk, cost <= Current Practice)", n))
	}
	r.Sessions = len(sessions)
	for _, s := range sessions {
		r.SessionS = append(r.SessionS, s.wall)
	}
	r.accs = sessions[0].accs
}

// repeat runs rounds of sessions until the next round would overrun the
// time budget, and at least atLeast rounds. A round is one session per
// entry of recs, a nil recorder meaning an untraced session; alternating
// the two kinds keeps slow drift of the machine out of their comparison.
// The result holds one slice of sessions per entry of recs.
func repeat(w workload, e *env, recs []*recorder, seconds float64, atLeast int) ([][]*sessionResult, error) {
	sessions := make([][]*sessionResult, len(recs))
	var slowest float64
	start := now()
	for len(sessions[0]) < atLeast || since(start)+slowest <= seconds {
		r0 := now()
		for i, rec := range recs {
			// Every session starts from a collected heap, so that what the
			// previous one left behind is not collected on this one's time.
			runtime.GC()
			s, err := w.run(e, rec)
			if err != nil {
				return nil, fmt.Errorf("%s session %d: %w", w.name, len(sessions[i])+1, err)
			}
			sessions[i] = append(sessions[i], s)
		}
		slowest = math.Max(slowest, since(r0))
	}
	return sessions, nil
}

// warmUp runs one session that is not measured and returns how long it
// took. A process's first session pays for growing the heap to the
// workload's size (it ran 15-20 % slower than the fourth); the measured
// ones find those pages already mapped.
func warmUp(w workload, e *env) (float64, error) {
	d, err := timed(func() error {
		_, err := w.run(e, nil)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	return d, nil
}

// medianOf returns the median over sessions of f.
func medianOf(sessions []*sessionResult, f func(*sessionResult) float64) float64 {
	vals := make([]float64, len(sessions))
	for i, s := range sessions {
		vals[i] = f(s)
	}
	return median(vals)
}

// untraced is the pass the end-to-end metrics come from.
func untraced(w workload, e *env, seconds float64, fullParity bool) (*runResult, error) {
	t0 := now()
	r := &runResult{Workload: w.name, Metrics: map[string]float64{}, Counts: map[string]float64{}}
	if _, err := warmUp(w, e); err != nil {
		return nil, err
	}
	rounds, err := repeat(w, e, []*recorder{nil}, seconds, minSessions)
	if err != nil {
		return nil, err
	}
	sessions := rounds[0]
	r.collect(sessions)
	if w.train != nil {
		n, failures, _, err := sampleParity(e, *w.train, r.accs, fullParity)
		if err != nil {
			return nil, err
		}
		r.Attempted += n
		r.fail(failures...)
		r.Checks = append(r.Checks, fmt.Sprintf("parity: %d candidate-cycles re-trained under %s", n, counterpart(w.train.approach)))
	}
	if w.golden {
		ok, n, failures, err := checkGolden(e, w.name, r.accs)
		if err != nil {
			return nil, err
		}
		if ok {
			r.Attempted += n
			r.fail(failures...)
			r.Checks = append(r.Checks, fmt.Sprintf("golden: %d candidate-cycles against bench/golden", n))
		} else {
			r.Checks = append(r.Checks, fmt.Sprintf("golden: skipped, no file for seed %d", e.seed))
		}
	}
	last := len(sessions[0].cycles) - 1
	r.Metrics["setup_s"] = medianOf(sessions, func(s *sessionResult) float64 { return s.setupS })
	r.Metrics["session_s"] = medianOf(sessions, func(s *sessionResult) float64 { return s.wall })
	r.Metrics["first_cycle_s"] = medianOf(sessions, func(s *sessionResult) float64 { return s.cycles[0] })
	r.Metrics["last_cycle_s"] = medianOf(sessions, func(s *sessionResult) float64 { return s.cycles[last] })
	r.Metrics["work_per_s"] = medianOf(sessions, func(s *sessionResult) float64 { return s.work / s.workS })
	for _, name := range exactCounts {
		r.Counts[name] = sessions[0].layer[name]
	}
	r.Correct = r.Failed == 0
	r.WallS = since(t0)
	return r, nil
}

// traced is the pass the per-layer metrics come from: untraced and traced
// sessions in alternation, the other approach's session for the speed-up
// and a full parity check, then the kernel probes.
func traced(w workload, e *env, seconds float64, tracePath string) (*runResult, error) {
	t0 := now()
	r := &runResult{Workload: w.name, Traced: true, Metrics: map[string]float64{}}
	layer := map[string]float64{}
	var err error
	if layer["bench.warmup_s"], err = warmUp(w, e); err != nil {
		return nil, err
	}
	rec := newRecorder(w.name)
	rounds, err := repeat(w, e, []*recorder{nil, rec}, seconds/2, 2)
	if err != nil {
		return nil, err
	}
	if err := rec.flush(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	bases, sessions := rounds[0], rounds[1]
	baseWall := medianOf(bases, func(s *sessionResult) float64 { return s.wall })
	if w.train != nil {
		n, failures, otherWall, err := sampleParity(e, *w.train, bases[0].accs, true)
		if err != nil {
			return nil, err
		}
		r.Attempted += n
		r.fail(failures...)
		r.Checks = append(r.Checks, fmt.Sprintf("parity: all %d candidate-cycles re-trained under %s", n, counterpart(w.train.approach)))
		cpWall, nautilusWall := otherWall, baseWall
		if w.train.approach == core.CurrentPractice {
			cpWall, nautilusWall = baseWall, otherWall
		}
		layer["core.speedup_vs_cp"] = cpWall / nautilusWall
	}
	r.collect(append(bases, sessions...))
	if w.train != nil {
		r.Checks = append(r.Checks, "staged driver == Fit loop: accuracies bit-identical")
	}

	names := map[string]bool{}
	for _, s := range sessions {
		for name := range s.layer {
			names[name] = true
		}
	}
	for name := range names {
		layer[name] = medianOf(sessions, func(s *sessionResult) float64 { return s.layer[name] })
	}
	tracedWall := medianOf(sessions, func(s *sessionResult) float64 { return s.wall })
	layer["bench.traced_session_s"] = tracedWall
	layer["bench.trace_overhead_pct"] = 100 * (tracedWall - baseWall) / baseWall
	probeKernels(layer, e.seed)
	layer["runtime.peak_rss_mb"] = peakRSSMB()
	for _, m := range perLayer {
		r.Metrics[m.Name] = layer[m.Name]
	}
	r.Correct = r.Failed == 0
	r.WallS = since(t0)
	return r, nil
}

// contractLine renders the result as the one-line JSON object the
// benchmark contract asks for.
func contractLine(r *runResult, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range defs {
		out.Metrics[m.Name] = value{r.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain floats, strings and bools always marshal
	}
	return string(b)
}

// report prints a result for people.
func report(r *runResult, defs []metricDef) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("\n== %s (%s): %d sessions %.3f s, %d ops attempted, %d failed, %.1f s in all\n", r.Workload, pass, r.Sessions, r.SessionS, r.Attempted, r.Failed, r.WallS)
	for _, m := range defs {
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  [%s is better, regression bound %.0f%%]", m.Better, 100*m.Bound)
		}
		fmt.Printf("  %-30s %14.6g %-12s%s\n", m.Name, r.Metrics[m.Name], m.Unit, bound)
	}
	for _, c := range r.Checks {
		fmt.Printf("  check  %s\n", c)
	}
	for i, f := range r.Failures {
		if i == 10 {
			fmt.Printf("  FAIL   ... and %d more\n", len(r.Failures)-i)
			break
		}
		fmt.Printf("  FAIL   %s\n", f)
	}
}

// runSeconds is BENCHMARK.json's run_seconds and the default of -seconds.
const runSeconds = 15

// benchmarkSpec renders BENCHMARK.json from the workload and metric tables,
// so that the file and the code cannot say different things
// (go run ./bench -print-spec > BENCHMARK.json; bench_test.go compares).
func benchmarkSpec() string {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	metrics := func(defs []metricDef) []entry {
		out := make([]entry, len(defs))
		for i, m := range defs {
			out[i] = entry{Name: m.Name, Unit: m.Unit, Better: m.Better}
			if m.Bound > 0 {
				bound := m.Bound
				out[i].Bound = &bound
			}
		}
		return out
	}
	var ws []entry
	for _, w := range allWorkloads() {
		ws = append(ws, entry{Name: w.name, Why: w.why})
	}
	b, err := json.MarshalIndent(struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{[]string{"go", "run", "./bench"}, []string{"bench"}, runSeconds, ws, metrics(endToEnd), metrics(perLayer)}, "", "  ")
	if err != nil {
		panic(err) // plain strings and floats always marshal
	}
	return string(b)
}

// runRecord describes the machine and inputs of one invocation.
type runRecord struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	KernelWorkers int     `json:"kernel_workers"`
	GoVersion     string  `json:"go_version"`
	GitCommit     string  `json:"git_commit"`
	TuneTableSHA  string  `json:"tune_table_sha256"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds_per_workload"`
	MinSessions   int     `json:"median_over_at_least_sessions"`
}

func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// newEnv pins the process to min(nproc, 4) cores, installs the committed
// kernel-schedule table (as core.New does on every session's behalf, so the
// staged driver runs on the same schedules) and creates the root every
// session's work directory lives under.
func newEnv(seed int64) (*env, *runRecord, error) {
	root, err := findRoot()
	if err != nil {
		return nil, nil, err
	}
	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)
	e := &env{root: root, seed: seed, workers: workers, tunePath: filepath.Join(root, "TUNE_table.json")}
	tensor.SetMaxWorkers(workers)
	schedules, err := tune.Load(e.tunePath)
	if err != nil {
		return nil, nil, err
	}
	tensor.SetScheduleSource(schedules)
	table, err := os.ReadFile(e.tunePath)
	if err != nil {
		return nil, nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	if e.workRoot, err = os.MkdirTemp(out, "work-"); err != nil {
		return nil, nil, err
	}
	rec := &runRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: workers, KernelWorkers: workers,
		GoVersion: runtime.Version(), GitCommit: gitCommit(),
		TuneTableSHA: fmt.Sprintf("%x", sha256.Sum256(table)),
		Seed:         seed, MinSessions: minSessions,
	}
	return e, rec, nil
}

func main() { os.Exit(run()) }

// options are the command line of one invocation.
type options struct {
	single       string
	only         string
	seed         int64
	seconds      float64
	trace        int
	withTraced   bool
	aa           bool
	golden       bool
	verifyParity bool
}

func run() int {
	var o options
	flag.StringVar(&o.single, "workload", "", "run this one workload and end with the contract's one-line JSON result")
	flag.StringVar(&o.only, "only", "", "comma-separated workloads to run (default: all six)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of pool synthesis, mini-batch shuffling and store content")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds of repeated sessions per workload")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	flag.BoolVar(&o.withTraced, "traced", false, "after the untraced pass, run the traced pass too")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced set twice and require the two to agree")
	flag.BoolVar(&o.golden, "write-golden", false, "write bench/golden/<workload>.seed<N>.json from Current Practice sessions and exit")
	flag.BoolVar(&o.verifyParity, "verify-parity", false, "re-train every candidate under the other approach, not a sample")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json as the code defines it and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *printSpec {
		fmt.Println(benchmarkSpec())
		return 0
	}

	var selected []workload
	want := map[string]bool{}
	for _, name := range strings.Split(o.single+","+o.only, ",") {
		if name != "" {
			want[name] = true
		}
	}
	all := len(want) == 0
	for _, w := range allWorkloads() {
		if all || want[w.name] {
			selected = append(selected, w)
			delete(want, w.name)
		}
	}
	if len(want) > 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload(s) %v\n", keys(want))
		return 2
	}

	e, record, err := newEnv(o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	record.Seconds = o.seconds

	// Work directories go on every exit path: return, failure or signal.
	defer os.RemoveAll(e.workRoot)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	finished, watcherGone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watcherGone)
		select {
		case <-sig:
			_ = os.RemoveAll(e.workRoot) // exiting anyway
			os.Exit(130)
		case <-finished:
		}
	}()
	code := execute(e, record, selected, o)
	close(finished)
	<-watcherGone
	return code
}

// execute runs the selected workloads in the mode the options ask for and
// returns the exit code.
func execute(e *env, record *runRecord, selected []workload, o options) int {
	if o.golden {
		for _, w := range selected {
			if !w.golden {
				continue
			}
			if err := writeGolden(e, w); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Println("wrote", goldenPath(e, w.name))
		}
		return 0
	}

	outDir := filepath.Join(e.root, "bench", "out")
	tracePath := filepath.Join(outDir, "trace.jsonl")
	if err := os.Remove(tracePath); err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("bench: nproc %d, GOMAXPROCS %d, kernel workers %d, %s, commit %s, seed %d, %.0f s per workload, medians over >= %d sessions\n",
		record.NProc, record.GOMAXPROCS, record.KernelWorkers, record.GoVersion, record.GitCommit, record.Seed, record.Seconds, minSessions)

	var results []*runResult
	var contract []string // with -workload: the result line that must come last
	failed := false
	pass := func(w workload, isTraced bool) *runResult {
		var r *runResult
		var err error
		if isTraced {
			r, err = traced(w, e, o.seconds, tracePath)
		} else {
			r, err = untraced(w, e, o.seconds, o.verifyParity)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = true
			return nil
		}
		defs := endToEnd
		if isTraced {
			defs = perLayer
		}
		report(r, defs)
		results = append(results, r)
		failed = failed || !r.Correct
		return r
	}

	sets := 1
	if o.aa {
		sets = 2
	}
	firstSet := map[string]*runResult{}
	for set := 0; set < sets; set++ {
		byName := map[string]*runResult{}
		for _, w := range selected {
			tracedOnly := o.single != "" && o.trace == 1
			if !tracedOnly {
				if r := pass(w, false); r != nil {
					byName[w.name] = r
					if o.single != "" {
						contract = append(contract, contractLine(r, endToEnd))
					}
				}
			}
			if tracedOnly || o.withTraced {
				if r := pass(w, true); r != nil && tracedOnly {
					contract = append(contract, contractLine(r, perLayer))
				}
			}
		}
		// The two FTR-3 workloads train the same candidates on the same
		// data: with both in the set, every accuracy must match.
		if n, cp := byName["ftr3_nautilus"], byName["ftr3_current_practice"]; n != nil && cp != nil {
			compared, failures := diffAccs("ftr3_nautilus vs ftr3_current_practice", n.accs, cp.accs)
			fmt.Printf("\n== ftr3_nautilus vs ftr3_current_practice: %d candidate-cycles compared, %d differ; speed-up %.2fx (per-layer only: a kernel change moves both sessions)\n",
				compared, len(failures), cp.Metrics["session_s"]/n.Metrics["session_s"])
			for _, f := range failures {
				fmt.Printf("  FAIL   %s\n", f)
			}
			n.Attempted += compared
			n.fail(failures...)
			n.Correct = n.Failed == 0
			failed = failed || !n.Correct
		}
		if set == 0 {
			firstSet = byName
		} else if !agree(firstSet, byName) {
			failed = true
		}
	}

	if err := writeResults(filepath.Join(outDir, "results.json"), record, results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	if failed {
		fmt.Println("\nbench: FAILED")
		code = 1
	}
	for _, line := range contract {
		fmt.Println(line)
	}
	return code
}

// agree is the -aa check: the same code run twice must give end-to-end
// metrics within their own bounds of each other and identical counts.
func agree(a, b map[string]*runResult) bool {
	ok := true
	fmt.Println("\n== A/A: second set against the first")
	for _, name := range keys(a) {
		ra, rb := a[name], b[name]
		if rb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if diff > m.Bound {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Printf("  %-24s %-16s %12.6g %12.6g  %5.1f%% of %2.0f%%  %s\n", name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		for _, c := range exactCounts {
			if math.Float64bits(ra.Counts[c]) != math.Float64bits(rb.Counts[c]) {
				fmt.Printf("  %-24s %-16s %12.0f %12.0f  DIFFER\n", name, c, ra.Counts[c], rb.Counts[c])
				ok = false
			}
		}
	}
	return ok
}

func writeResults(path string, record *runRecord, results []*runResult) error {
	b, err := json.MarshalIndent(struct {
		Run     *runRecord   `json:"run"`
		Results []*runResult `json:"results"`
	}{record, results}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
