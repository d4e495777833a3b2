package main

import (
	"encoding/json"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/distsim"
)

// Run these from this directory (`go test ./...`): the package is a
// module of its own, so the repository's `go test ./...` does not see it.

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from spec.go")

// testScale shrinks every horizon a hundredfold; no golden digest
// applies, so each round is checked against a live-computed reference.
const testScale = 100

// TestWorkloadsMatchReference runs every workload, untraced and traced,
// and checks the output against the single-process reference computed
// on the spot. The traced round must report exactly the per-layer names
// of spec.go, which TestBenchmarkJSONMatchesSpec ties to BENCHMARK.json.
func TestWorkloadsMatchReference(t *testing.T) {
	want := make([]string, len(perLayer))
	for i, m := range perLayer {
		want[i] = m.name
	}
	sort.Strings(want)
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runRound(spec, 7, testScale, traced, expectation{}, 0, "test", t.TempDir(), t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Events == 0 {
					t.Fatalf("traced=%v: correct=%v events=%d faults=%v", traced, res.Correct, res.Events, res.Faults)
				}
				if !traced {
					continue
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("traced round reports %v, spec lists %v", got, want)
				}
				if len(res.Layers) == 0 {
					t.Error("traced round has no layer table")
				}
			}
		})
	}
}

// TestWrongExpectationFails: a round whose output differs from the
// reference is incorrect, not merely annotated.
func TestWrongExpectationFails(t *testing.T) {
	res, err := runRound(findWorkload("seq-hold"), 7, testScale, false, expectation{Digest: "0000", Events: 1}, 0, "test", t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.Faults) == 0 {
		t.Fatalf("a wrong digest passed: %+v", res)
	}
}

// TestConnCountsMatchWireSnapshot: the counting conn handed to
// Worker.Dial sees the frames and bytes the worker's own transport
// counters report.
func TestConnCountsMatchWireSnapshot(t *testing.T) {
	const lps = 8
	c := distsim.NewCoordinator(lps, 1, 50, 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	workers := []*distsim.Worker{distsim.NewWorker(0, 1, 2, 3), distsim.NewWorker(4, 5, 6, 7)}
	stats := make([]*connStats, len(workers))
	errs := make(chan error, len(workers))
	for i, w := range workers {
		distsim.InstallPHOLD(w, lps, 4, 0.3, 0)
		st := &connStats{}
		stats[i] = st
		w.Dial = func() (net.Conn, error) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, st: st}, nil
		}
		go func() { errs <- w.Run(ln.Addr().String()) }()
	}
	if err := c.Serve(ln, len(workers)); err != nil {
		t.Fatal(err)
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		wire, got := w.WireSnapshot(), stats[i].totals()
		if uint64(got.writes) != wire.FramesSent || uint64(got.bytesOut) != wire.BytesSent || uint64(got.bytesIn) != wire.BytesRecv {
			t.Errorf("worker %d: conn saw %d frames %d bytes out, %d bytes in; WireSnapshot says %d, %d, %d",
				i, got.writes, got.bytesOut, got.bytesIn, wire.FramesSent, wire.BytesSent, wire.BytesRecv)
		}
		if got.busyNs <= 0 || got.readNs <= 0 {
			t.Errorf("worker %d: busy %d ns, read wait %d ns", i, got.busyNs, got.readNs)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %v %v %v", q1, q2, q3)
	}
	// The driver is given the quartile on the metric's good side.
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.fast("higher") != 8.25 || s.fast("lower") != 2.75 {
		t.Errorf("fast quartiles: %v %v", s.fast("higher"), s.fast("lower"))
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("five values: %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := func(center float64) summary {
		vals := make([]float64, 10)
		for i := range vals {
			vals[i] = center * (1 + 0.002*float64(i-5))
		}
		return summarize(vals)
	}
	eps, setup := findMetric("events_per_s"), findMetric("setup_s")
	b := eps.bound
	noisy := func(center float64) summary { // quartiles ~1.2 bounds apart
		vals := make([]float64, 10)
		for i := range vals {
			vals[i] = center * (1 + 0.6*b*float64(i%5-2))
		}
		return summarize(vals)
	}
	cases := []struct {
		name     string
		m        *metricSpec
		old, cur summary
		want     string
	}{
		{"same", eps, steady(1000), steady(1000), withinBound},
		{"faster by two bounds", eps, steady(1000), steady(1000 * (1 + 2*b)), better},
		{"small steady gain still wins every pair", eps, steady(1000), steady(1030), better},
		{"slower by half the bound", eps, steady(1000), steady(1000 * (1 - b/2)), withinBound},
		{"slower by two bounds", eps, steady(1000), steady(1000 * (1 - 2*b)), worse},
		{"noise wider than the bound", eps, noisy(1000), noisy(1000), unresolved},
		{"noisy but every pair lost by a mile", eps, noisy(1000), noisy(300), worse},
		{"set-up 3 ms slower on 4 ms is under the floor", setup, steady(0.004), steady(0.007), withinBound},
		{"set-up two bounds slower", setup, steady(0.1), steady(0.1 * (1 + 2*setup.bound)), worse},
		{"lower is better", setup, steady(0.1), steady(0.05), better},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	// A higher failed_frac is worse whatever the timings say.
	old := &runFile{Workloads: []workloadResult{{Workload: "seq-hold", Attempted: 5, EndToEnd: map[string]summary{}}}}
	cur := &runFile{Workloads: []workloadResult{{Workload: "seq-hold", Attempted: 5, Failed: 1, FailedFrac: 0.2, EndToEnd: map[string]summary{}}}}
	rows := compareFiles(old, cur)
	if last := rows[len(rows)-1]; last.metric != failedFrac || last.verdict != worse {
		t.Errorf("failed_frac row: %+v", last)
	}
}

// TestFailedChildrenAreCounted: a child that exits non-zero, hangs past
// the timeout or prints no result is a failed round in failed_frac.
func TestFailedChildrenAreCounted(t *testing.T) {
	spec := findWorkload("seq-hold")
	s := &session{tmpDir: t.TempDir(), outDir: t.TempDir(), timeout: 200 * time.Millisecond, log: io.Discard}
	w := workloadResult{Workload: spec.name}
	for _, argv := range [][]string{
		{"sh", "-c", "exit 3"},
		{"sleep", "5"},
		{"echo", "not a result"},
	} {
		s.argv = func([]string) []string { return argv }
		res := s.spawn(spec, 1, expectation{}, false, 0, "test")
		if res.Err == "" || !res.failed() {
			t.Errorf("%v: not reported as failed: %+v", argv, res)
		}
		w.Rounds = append(w.Rounds, res)
	}
	// One good round beside them.
	w.Rounds = append(w.Rounds, roundResult{Correct: true, Events: 1000, RunS: 1, CPUS: 1, SetupS: 0.01})
	w.aggregate()
	if w.Attempted != 4 || w.Failed != 3 || w.FailedFrac != 0.75 {
		t.Errorf("attempted %d failed %d frac %v", w.Attempted, w.Failed, w.FailedFrac)
	}
	if n := w.EndToEnd["events_per_s"].N; n != 1 {
		t.Errorf("failed rounds leaked into the timings: n=%d", n)
	}
}

// benchmarkJSON mirrors the contract's shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []benchmarkWorkload `json:"workloads"`
	EndToEnd   []benchmarkMetric   `json:"end_to_end"`
	PerLayer   []benchmarkMetric   `json:"per_layer"`
}

type benchmarkWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func specAsBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "bench/run.sh", "bench"}, Paths: []string{"bench"}, RunSeconds: contractSeconds}
	for _, w := range workloads {
		if w.gated {
			b.Workloads = append(b.Workloads, benchmarkWorkload{w.name, w.why})
		}
	}
	for _, m := range endToEnd {
		bound := m.bound
		b.EndToEnd = append(b.EndToEnd, benchmarkMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, benchmarkMetric{m.name, m.unit, m.better, nil})
	}
	return b
}

// TestBenchmarkJSONMatchesSpec: BENCHMARK.json lists exactly the gated
// workloads and the metrics of spec.go, and every name and unit is inside
// the contract's alphabet. `go test -run BenchmarkJSON -update`
// rewrites the file from spec.go.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	want := specAsBenchmarkJSON()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and spec.go differ; run `go test -run BenchmarkJSON -update`\n got %+v\nwant %+v", got, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var hasSetup bool
	for _, m := range append(got.EndToEnd, got.PerLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v", m.Name, *m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestGoldenCoversSeeds: bench/golden.json has an entry for the default
// seed and the held-out seed of every workload.
func TestGoldenCoversSeeds(t *testing.T) {
	g, err := loadGolden(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []string{"1", "2"} {
			if exp := g.Workloads[w.name][seed]; exp.Digest == "" || exp.Events == 0 {
				t.Errorf("%s seed %s: no golden entry", w.name, seed)
			}
		}
	}
}

func findMetric(name string) *metricSpec {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for i := range list {
			if list[i].name == name {
				return &list[i]
			}
		}
	}
	return nil
}
