package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// workloadResult is one workload's part of a result file: medians with
// quartiles for the end-to-end metrics, the traced round's per-layer
// values, and every timed round raw.
type workloadResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// OverheadOnly marks a result taken on a host with fewer CPUs than
	// the workload has compute goroutines: it prices the machinery, not
	// parallel speed.
	OverheadOnly bool               `json:"overhead_only"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailedFrac   float64            `json:"failed_frac"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Layers       []layerRow         `json:"layers,omitempty"`
	Rounds       []roundResult      `json:"rounds"`
}

// runFile is bench/out/run-<utc>.json.
type runFile struct {
	Tool        string           `json:"tool"`
	UTC         string           `json:"utc"`
	Host        hostInfo         `json:"host"`
	Seed        uint64           `json:"seed"`
	TimedRounds int              `json:"timed_rounds"`
	Workloads   []workloadResult `json:"workloads"`
}

// session is where and how children are run.
type session struct {
	root    string // the checkout: golden.json, out/ and the temp dir hang off it
	outDir  string
	tmpDir  string
	timeout time.Duration // per child
	log     io.Writer
	// argv builds a child's command line from the arguments of
	// `lsbench one`; tests substitute commands that fail or hang.
	argv func(oneArgs []string) []string
}

func newSession() (*session, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &session{
		root:    root,
		outDir:  filepath.Join(root, "bench", "out"),
		tmpDir:  filepath.Join(root, ".bench_build", "tmp"),
		timeout: 120 * time.Second,
		log:     os.Stderr,
		argv:    func(oneArgs []string) []string { return append([]string{exe, "one"}, oneArgs...) },
	}
	for _, dir := range []string{s.outDir, s.tmpDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// findRoot locates the checkout: $LSBENCH_ROOT when run.sh set it,
// else the nearest directory at or above the working directory that
// holds BENCHMARK.json.
func findRoot() (string, error) {
	if root := os.Getenv("LSBENCH_ROOT"); root != "" {
		return root, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the checkout (no BENCHMARK.json at or above the working directory); set LSBENCH_ROOT")
		}
		dir = parent
	}
}

// goldenFile is bench/golden.json: the single-process reference's
// digest and event count per workload and seed, at full size.
type goldenFile struct {
	Note      string                            `json:"note"`
	Workloads map[string]map[string]expectation `json:"workloads"` // workload -> seed -> expectation
}

func goldenPath(root string) string { return filepath.Join(root, "bench", "golden.json") }

func loadGolden(root string) (*goldenFile, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	g := &goldenFile{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	return g, nil
}

// expect returns the expectation for (workload, seed): the golden entry
// when there is one, else the single-process reference computed now,
// untimed, before any round starts.
func (s *session) expect(g *goldenFile, spec *workloadSpec, seed uint64) (expectation, error) {
	if exp, ok := g.Workloads[spec.name][strconv.FormatUint(seed, 10)]; ok {
		return exp, nil
	}
	start := time.Now()
	exp, err := reference(spec, seed, 1)
	fmt.Fprintf(s.log, "reference %s seed %d: %d events in %.1fs\n", spec.name, seed, exp.Events, time.Since(start).Seconds())
	return exp, err
}

// spawn runs one child to completion and returns its result. A child
// that exits non-zero, outlives the timeout or prints no result is a
// failed round, never a dropped one.
func (s *session) spawn(spec *workloadSpec, seed uint64, exp expectation, traced bool, untracedRunS float64, runID string) roundResult {
	args := []string{
		"-workload", spec.name, "-seed", strconv.FormatUint(seed, 10),
		"-expect-digest", exp.Digest, "-expect-events", strconv.FormatUint(exp.Events, 10),
		"-run-id", runID, "-tmp", s.tmpDir,
	}
	if traced {
		args = append(args, "-trace", "-out", s.outDir, "-untraced-run-s", strconv.FormatFloat(untracedRunS, 'g', -1, 64))
	}
	argv := s.argv(args)
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = s.log
	cmd.WaitDelay = time.Second

	res := roundResult{Workload: spec.name, Seed: seed, RunID: runID, Traced: traced}
	spawned := time.Now()
	err := cmd.Run()
	switch {
	case ctx.Err() != nil:
		res.Err = fmt.Sprintf("timed out after %v", s.timeout)
		return res
	case err != nil:
		res.Err = err.Error()
		return res
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		res.Err = "no result on the child's last line: " + err.Error()
		return res
	}
	res.SetupS = float64(res.ReadyUnixNs-spawned.UnixNano()) / 1e9
	res.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return res
}

// plan says what to measure. Rounds go round-robin across workloads so
// that drift in the host hits all of them alike.
type plan struct {
	specs []*workloadSpec
	seed  uint64
	// timed is the number of timed rounds per workload. When zero, timed
	// rounds repeat until seconds of them have been run (at least
	// minTimedRounds).
	timed   int
	seconds float64
	traced  bool
}

const minTimedRounds = 3

func (s *session) measure(p plan) ([]workloadResult, error) {
	golden, err := loadGolden(s.root)
	if err != nil {
		return nil, err
	}
	exps := make([]expectation, len(p.specs))
	for i, spec := range p.specs {
		if exps[i], err = s.expect(golden, spec, p.seed); err != nil {
			return nil, err
		}
	}
	results := make([]workloadResult, len(p.specs))
	for i, spec := range p.specs {
		results[i] = workloadResult{Workload: spec.name, Seed: p.seed, OverheadOnly: childProcs() < spec.lanes}
	}
	runID := func(spec *workloadSpec, kind string, n int) string {
		return fmt.Sprintf("%s-s%d-%s%d", spec.name, p.seed, kind, n)
	}
	for n := 0; n < warmupRounds; n++ {
		for i, spec := range p.specs {
			if res := s.spawn(spec, p.seed, exps[i], false, 0, runID(spec, "warmup", n)); res.failed() {
				fmt.Fprintf(s.log, "warm-up %s: %s %v\n", spec.name, res.Err, res.Faults)
			}
		}
	}
	start := time.Now()
	for n := 0; ; n++ {
		if p.timed > 0 && n >= p.timed {
			break
		}
		if p.timed == 0 && n >= minTimedRounds {
			// Stop when the next round would end further from the budget
			// than this one did.
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(n)/2 > p.seconds {
				break
			}
		}
		for i, spec := range p.specs {
			res := s.spawn(spec, p.seed, exps[i], false, 0, runID(spec, "timed", n))
			if res.failed() {
				fmt.Fprintf(s.log, "round %s failed: %s %v\n", res.RunID, res.Err, res.Faults)
			}
			results[i].Rounds = append(results[i].Rounds, res)
		}
	}
	for i := range results {
		results[i].aggregate()
	}
	if p.traced {
		for i, spec := range p.specs {
			res := s.spawn(spec, p.seed, exps[i], true, results[i].medianRunS(), runID(spec, "traced", 0))
			results[i].Attempted++
			if res.failed() {
				fmt.Fprintf(s.log, "traced round %s failed: %s %v\n", res.RunID, res.Err, res.Faults)
				results[i].Failed++
			}
			results[i].FailedFrac = float64(results[i].Failed) / float64(results[i].Attempted)
			results[i].PerLayer, results[i].Layers = res.Metrics, res.Layers
		}
	}
	return results, nil
}

// aggregate turns the timed rounds into the end-to-end summaries.
// Failed rounds count in failed_frac and nowhere else.
func (w *workloadResult) aggregate() {
	values := map[string][]float64{}
	w.Attempted, w.Failed = len(w.Rounds), 0
	for _, r := range w.Rounds {
		if r.failed() {
			w.Failed++
			continue
		}
		values["events_per_s"] = append(values["events_per_s"], float64(r.Events)/r.RunS)
		values["cpu_s_per_mevent"] = append(values["cpu_s_per_mevent"], r.CPUS/(float64(r.Events)/1e6))
		values["setup_s"] = append(values["setup_s"], r.SetupS)
	}
	w.FailedFrac = float64(w.Failed) / float64(w.Attempted)
	w.EndToEnd = map[string]summary{}
	for _, m := range endToEnd {
		w.EndToEnd[m.name] = summarize(values[m.name])
	}
}

func (w *workloadResult) medianRunS() float64 {
	var runs []float64
	for _, r := range w.Rounds {
		if !r.failed() {
			runs = append(runs, r.RunS)
		}
	}
	return median(runs)
}

func (w *workloadResult) print(out io.Writer) {
	tag := ""
	if w.OverheadOnly {
		tag = " [overhead-only: fewer CPUs than compute goroutines]"
	}
	fmt.Fprintf(out, "\n%s (seed %d)%s\n", w.Workload, w.Seed, tag)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tmedian\tq1\tq3\tn\trounds")
	for _, m := range endToEnd {
		s := w.EndToEnd[m.name]
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%.4g\n", m.name, m.unit, s.Median, s.Q1, s.Q3, s.N, s.Values)
	}
	fmt.Fprintf(tw, "  %s\tfraction\t%.6g\t\t\t%d\t\n", failedFrac, w.FailedFrac, w.Attempted)
	tw.Flush()
	if w.PerLayer != nil {
		tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  per-layer metric\tunit\tvalue")
		for _, m := range perLayer {
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\n", m.name, m.unit, w.PerLayer[m.name])
		}
		tw.Flush()
	}
}

// runAll is `lsbench run` without the printing: every workload, the
// fixed round plan, the result file written.
func (s *session) runAll(seed uint64) (*runFile, string, error) {
	results, err := s.measure(plan{specs: allWorkloads(), seed: seed, timed: timedRounds, traced: true})
	if err != nil {
		return nil, "", err
	}
	now := time.Now().UTC()
	rf := &runFile{Tool: "lsbench", UTC: now.Format(time.RFC3339), Host: readHost(s.root, s.tmpDir), Seed: seed, TimedRounds: timedRounds, Workloads: results}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(s.outDir, "run-"+now.Format("20060102T150405Z")+".json")
	return rf, path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func (rf *runFile) failed() int {
	var n int
	for _, w := range rf.Workloads {
		n += w.Failed
	}
	return n
}

func allWorkloads() []*workloadSpec {
	specs := make([]*workloadSpec, len(workloads))
	for i := range workloads {
		specs[i] = &workloads[i]
	}
	return specs
}

// cmdRun is the one command: every workload, every output checked
// against the single-process reference, every metric printed by name
// with its unit.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed (1 and 2 have golden digests; 2 is the held-out seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newSession()
	if err != nil {
		return err
	}
	rf, path, err := s.runAll(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("lsbench: %d CPUs, GOMAXPROCS=%d, %s, %s, commit %.12s dirty=%v, tmp on %s\n",
		rf.Host.NProc, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Host.CPUModel, rf.Host.GitCommit, rf.Host.GitDirty, rf.Host.TmpFS)
	for i := range rf.Workloads {
		rf.Workloads[i].print(os.Stdout)
	}
	fmt.Printf("\nwrote %s\n", path)
	if n := rf.failed(); n > 0 {
		return fmt.Errorf("%d rounds failed", n)
	}
	return nil
}

// cmdBench is the contract the driver calls: one workload, measured for
// --seconds, one JSON object on the last line of standard output. Each
// end-to-end value is the fast quartile of the timed rounds (see
// summary.fast); the table on standard error has the medians.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", contractSeconds, "how long the timed rounds run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced round")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := findWorkload(*name)
	if spec == nil {
		return fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
	}
	s, err := newSession()
	if err != nil {
		return err
	}
	p := plan{specs: []*workloadSpec{spec}, seed: *seed, seconds: *seconds, traced: *trace == 1}
	if p.traced {
		// The traced round and its probes take the place of the last
		// timed rounds; the first ones still give the untraced median.
		p.seconds /= 2
	}
	results, err := s.measure(p)
	if err != nil {
		return err
	}
	w := results[0]
	w.print(os.Stderr)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]value{}}
	if p.traced {
		if w.PerLayer == nil {
			return errors.New("the traced round produced no layer read-outs")
		}
		for _, m := range perLayer {
			out.Metrics[m.name] = value{w.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			sum := w.EndToEnd[m.name]
			if sum.N == 0 {
				return fmt.Errorf("no timed round of %s succeeded", spec.name)
			}
			out.Metrics[m.name] = value{sum.fast(m.better), m.unit}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// cmdGolden regenerates bench/golden.json from the single-process
// reference, for the default seed and the held-out one.
func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	g := goldenFile{
		Note:      "single-process reference (parsim with 1 worker / a plain des run) at full size; regenerate with `lsbench golden`",
		Workloads: map[string]map[string]expectation{},
	}
	for i := range workloads {
		spec := &workloads[i]
		g.Workloads[spec.name] = map[string]expectation{}
		for _, seed := range []uint64{1, 2} {
			exp, err := reference(spec, seed, 1)
			if err != nil {
				return err
			}
			g.Workloads[spec.name][strconv.FormatUint(seed, 10)] = exp
			fmt.Printf("%s seed %d: %s %d events\n", spec.name, seed, exp.Digest, exp.Events)
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(data, '\n'), 0o644)
}
