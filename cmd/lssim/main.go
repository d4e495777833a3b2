// Command lssim runs one simulator personality scenario and prints its
// result metrics — the scenario-runner front end of the framework.
//
// Usage:
//
//	lssim -sim bricks|optorsim|simgrid|gridsim|chicsim|monarc|phold|distphold [-seed N] [-jobs N]
//
// Each personality runs its default configuration with the seed and
// job-count overrides applied where meaningful; lssim -h lists every
// flag.
//
// The phold personality is the checkpointable parallel benchmark: with
// -checkpoint it runs to a window barrier and writes a snapshot; with
// -resume it restores a snapshot and finishes the run; with -verify it
// additionally replays the whole run uninterrupted in-process and
// requires bit-identical results. -trace, -histo and -monout observe
// it per LP and per pool thread. It shares the front door with
// distphold.
//
// The distphold personality runs the same benchmark truly distributed:
// an in-process coordinator plus -workers TCP workers talking over the
// loopback, optionally through the deterministic fault injector
// (-chaos-*), with window skipping, adaptive partitioning, a durable
// journal and cluster telemetry behind the flags lsnode also has (they
// are bound once, in cmd/internal/front). -verify replays the run
// single-process and requires bit-identical per-LP results — the
// paper-grade evidence that a hostile network, a migration or a skipped
// window costs retries or wall time, never answers.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"

	"repro/cmd/internal/front"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simulators/bricks"
	"repro/internal/simulators/chicsim"
	"repro/internal/simulators/gridsim"
	"repro/internal/simulators/monarc"
	"repro/internal/simulators/optorsim"
	"repro/internal/simulators/simgrid"
)

// pholdJobs is the job population per LP when -jobs leaves it to the
// personality: the E5 default traffic mix.
const pholdJobs = 16

// runDistPHOLD executes the distributed PHOLD personality: the
// coordinator and its workers in one process, telemetry, summary and
// -verify through the front door lsnode's coordinator uses.
func runDistPHOLD(t *metrics.Table, r *front.Run) error {
	if err := r.Serve(t, nil); err != nil {
		return err
	}
	// The smokes' own assertions: a scripted fault or a skew that left no
	// mark means the run no longer exercises what it claims to.
	c := &r.Coord
	if forced := len(r.Chaos.ResetAt); c.Reconnects < forced {
		return fmt.Errorf("%d scripted resets forced only %d reconnects", forced, c.Reconnects)
	}
	if c.Rebalance != nil && r.Model.SkewHot > 0 && c.Migrations == 0 {
		return fmt.Errorf("rebalance: the skewed run migrated nothing (imbalance never crossed the threshold)")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lssim:", err)
	os.Exit(1)
}

func main() {
	run := front.Lssim(flag.CommandLine)
	flag.Parse()
	sim, seed, jobs := run.Sim, run.Coord.Seed, run.Model.JobsPerLP
	if jobs <= 0 {
		run.Model.JobsPerLP = pholdJobs
	}
	// The PHOLD personalities go through the front door: validated before
	// anything else, observed by the kernel. The sequential tail below is
	// for the rest.
	trace, histo := run.Trace, run.Histo
	if sim == "phold" || sim == "distphold" {
		if err := run.Validate(); err != nil {
			fatal(err)
		}
		trace, histo = "", false
	}
	if run.Pprof != "" {
		go func() {
			if err := http.ListenAndServe(run.Pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "lssim: pprof:", err)
			}
		}()
	}

	// Sequential personalities construct their engines internally, so the
	// trace recorder and histograms are injected through the engine's
	// default observer (see des.SetDefaultObserver). It cannot serve the
	// PHOLD personalities, whose LPs run concurrently in this process.
	var rec *obs.Recorder
	var met *obs.Metrics
	if trace != "" || histo {
		met = &obs.Metrics{}
		o := &des.Observer{Metrics: met}
		if trace != "" {
			rec = obs.NewRecorder(1 << 18)
			o.Recorder = rec
		}
		des.SetDefaultObserver(o)
		defer des.SetDefaultObserver(nil)
	}

	t := metrics.NewTable(fmt.Sprintf("lssim: %s (seed %d)", sim, seed), "metric", "value")
	switch sim {
	case "bricks":
		cfg := bricks.DefaultConfig()
		cfg.Seed = seed
		if jobs > 0 {
			cfg.JobsPerClient = jobs / cfg.Clients
		}
		r := bricks.Run(cfg)
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("makespan s", r.Makespan)
		t.AddRowf("mean response s", r.MeanResponse)
		t.AddRowf("mean wait s", r.MeanWait)
		t.AddRowf("server utilization", r.Utilization)
		t.AddRowf("WAN GB", r.WANBytesMoved/1e9)
	case "optorsim":
		cfg := optorsim.DefaultConfig()
		cfg.Seed = seed
		if jobs > 0 {
			cfg.Jobs = jobs
		}
		r := optorsim.Run(cfg)
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("mean job time s", r.MeanJobTime)
		t.AddRowf("local hit ratio", r.LocalHitRatio)
		t.AddRowf("replica pulls", r.Pulls)
		t.AddRowf("evictions", r.Evictions)
		t.AddRowf("WAN GB", r.WANBytes/1e9)
	case "simgrid":
		cfg := simgrid.DefaultConfig()
		cfg.Seed = seed
		if jobs > 0 {
			cfg.Tasks = jobs
		}
		r := simgrid.Run(cfg)
		t.AddRowf("tasks", r.Tasks)
		t.AddRowf("makespan s", r.Makespan)
		t.AddRowf("mean response s", r.MeanResponse)
		for i, n := range r.PerMachineJobs {
			t.AddRowf(fmt.Sprintf("machine %d tasks", i), n)
		}
	case "gridsim":
		cfg := gridsim.DefaultConfig()
		cfg.Seed = seed
		if jobs > 0 {
			cfg.Jobs = jobs
		}
		r := gridsim.Run(cfg)
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("completed", r.Completed)
		t.AddRowf("rejected", r.Rejected)
		t.AddRowf("deadline misses", r.DeadlineMisses)
		t.AddRowf("total spend", r.TotalSpend)
		t.AddRowf("mean response s", r.MeanResponse)
	case "chicsim":
		cfg := chicsim.DefaultConfig()
		cfg.Seed = seed
		if jobs > 0 {
			cfg.Jobs = jobs
		}
		r := chicsim.Run(cfg)
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("mean response s", r.MeanResponse)
		t.AddRowf("local hit ratio", r.LocalHitRatio)
		t.AddRowf("pushes", r.Pushes)
		t.AddRowf("WAN GB", r.WANBytes/1e9)
	case "monarc":
		cfg := monarc.DefaultConfig()
		cfg.Seed = seed
		if jobs > 0 {
			cfg.Runs = jobs
		}
		r := monarc.Run(cfg)
		t.AddRowf("RAW files produced", r.RawProduced)
		t.AddRowf("replicas shipped", r.Shipped)
		t.AddRowf("agent max delay s", r.AgentMaxDelay)
		t.AddRowf("reco jobs", r.RecoJobs)
		t.AddRowf("analysis jobs", r.AnalysisJobs)
		t.AddRowf("mean reco s", r.MeanRecoTime)
		t.AddRowf("mean analysis s", r.MeanAnaTime)
		t.AddRowf("T0 utilization", r.T0Utilization)
		t.AddRowf("WAN GB", r.WANBytes/1e9)
		t.AddRowf("DB queries", r.DBQueries)
	case "phold":
		if err := run.PHOLD(t); err != nil {
			fatal(err)
		}
	case "distphold":
		if err := runDistPHOLD(t, run); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "lssim: unknown personality %q\n", sim)
		flag.Usage()
		os.Exit(2)
	}
	if histo {
		t.AddRowf("event exec", met.Exec.String())
		t.AddRowf("queue dwell (sim ns)", met.Dwell.String())
	}
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}
	if trace != "" {
		_, _, err := front.WriteTrace(trace, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, obs.Track{Name: sim, TID: 0, Rec: rec})
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d spans, %d dropped)\n", trace, rec.Len(), rec.Dropped())
	}
}
