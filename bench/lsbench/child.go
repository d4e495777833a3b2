package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// roundResult is what one child reports on the last line of its
// standard output. The parent adds what only it can measure.
type roundResult struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	RunID    string   `json:"run_id"`
	Traced   bool     `json:"traced"`
	Events   uint64   `json:"events"`
	Digest   string   `json:"digest"`
	Correct  bool     `json:"correct"`
	Faults   []string `json:"faults,omitempty"`
	// ReadyUnixNs is the wall clock when the first event may execute;
	// the parent subtracts the time it spawned the child.
	ReadyUnixNs int64   `json:"ready_unix_ns"`
	RunS        float64 `json:"run_s"`
	// Metrics and Layers are the traced round's per-layer read-outs.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Layers  []layerRow         `json:"layers,omitempty"`

	// Filled in by the parent: spawn to ready, the child's user+sys
	// rusage, and why the round failed (exit code, timeout, bad output).
	SetupS float64 `json:"setup_s"`
	CPUS   float64 `json:"cpu_s"`
	Err    string  `json:"err,omitempty"`
}

func (r *roundResult) failed() bool { return r.Err != "" || !r.Correct }

// cmdOne runs one round of one workload in this process: the unit the
// parent spawns once per (workload, repetition).
func cmdOne(args []string) error {
	fs := flag.NewFlagSet("one", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	trace := fs.Bool("trace", false, "traced round: record spans, read the layers, run the probes")
	expectDigest := fs.String("expect-digest", "", "reference digest (computed here, after the run, when empty)")
	expectEvents := fs.Uint64("expect-events", 0, "reference event count")
	untraced := fs.Float64("untraced-run-s", 0, "median run wall of the untraced rounds, for obs.overhead_frac")
	runID := fs.String("run-id", "", "identifier shared by this round's spans")
	tmp := fs.String("tmp", os.TempDir(), "directory for cluster-durable's journal and checkpoint files")
	out := fs.String("out", "", "directory for trace-<workload>.json (traced round)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := findWorkload(*name)
	if spec == nil {
		return fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
	}
	res, err := runRound(spec, *seed, 1, *trace, expectation{Digest: *expectDigest, Events: *expectEvents}, *untraced, *runID, *tmp, *out)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runRound executes one round and checks it against exp; an empty
// expectation is computed from the single-process reference after the
// run, so it never sits in the set-up time.
func runRound(spec *workloadSpec, seed uint64, scale float64, traced bool, exp expectation, untracedRunS float64, runID, tmpDir, outDir string) (*roundResult, error) {
	r := &round{spec: spec, seed: seed, scale: scale, tmpDir: tmpDir, untracedRunS: untracedRunS, expectEvents: exp.Events}
	if traced {
		r.tr = &tracer{runID: runID}
		r.root = r.tr.begin("round "+spec.name, "lsbench", -1)
		// Every per-layer name is reported by every workload; a layer
		// the workload does not use stays at zero.
		r.metrics = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			r.metrics[m.name] = 0
		}
	}
	if err := r.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	if traced {
		r.tr.end(r.root)
	}
	if exp.Digest == "" {
		var err error
		if exp, err = reference(spec, seed, scale); err != nil {
			return nil, fmt.Errorf("%s reference: %w", spec.name, err)
		}
		if r.events == 0 { // tier-study untraced, run on its own
			r.events = exp.Events
		}
	}
	res := &roundResult{
		Workload: spec.name, Seed: seed, RunID: runID, Traced: traced,
		Events: r.events, Digest: r.digest(), Faults: r.faults,
		ReadyUnixNs: clock.UnixNano() + r.readyNs,
		RunS:        float64(r.runNs) / 1e9,
		Metrics:     r.metrics, Layers: r.rows,
	}
	if res.Digest != exp.Digest || res.Events != exp.Events {
		res.Faults = append(res.Faults, fmt.Sprintf("output differs from the single-process reference: digest %s events %d, want %s %d",
			res.Digest, res.Events, exp.Digest, exp.Events))
	}
	res.Correct = len(res.Faults) == 0
	if traced {
		printLayerTable(os.Stderr, spec.name, float64(r.runNs), r.rows)
		if outDir != "" {
			tf := &traceFile{Workload: spec.name, Seed: seed, RunID: runID, RunWallS: res.RunS, Spans: r.tr.spans, Layers: r.rows, Metrics: r.metrics}
			if err := writeTrace(outDir, tf); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
