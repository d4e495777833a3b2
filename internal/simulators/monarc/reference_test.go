package monarc

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/monitoring"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The tier model's archive and analysis jobs as they were before they
// became event chains: one process each, written over the blocking
// primitives. Run, ReplayMonitoring and RunTierStudy below are the old
// functions verbatim but for their names; they are the reference the
// event chains must reproduce event for event. The agent, the activity
// and the CPU task the jobs drive are pinned against their own process
// references in replication, workload and resources.

func refRun(cfg Config) Result {
	e, grid, sys, agent, recoCluster := build(cfg)
	src := e.Stream("monarc")

	var recoTime, anaTime metrics.Summary
	var recoJobs, anaJobs uint64

	// RAW production activity at T0: each run produces a RAW file,
	// the agent ships it to every T1, and a reconstruction job is
	// queued at T0 (writing its output to tape).
	t0 := grid.Site("T0")
	prodSrc := e.Stream("lhc-run")
	production := workload.LHCRun(cfg.LHC, prodSrc, func(i int, f *replication.File) {
		agent.Produce(f)
		job := &scheduler.Job{ID: i, Name: "reco", Ops: cfg.LHC.RecoOps()}
		recoCluster.Submit(job, func(j *scheduler.Job) {
			recoJobs++
			recoTime.Observe(j.ResponseTime())
			// Archive the derived ESD to mass storage via an active
			// object — tape drives serialize.
			e.Spawn(fmt.Sprintf("archive%04d", j.ID), func(p *des.Process) {
				t0.Tape.Write(p, cfg.LHC.ESDBytes)
			})
		})
	})
	production.MaxJobs = cfg.Runs
	production.Start(e)

	// Analysis activities at the T1 centres: pick a produced RAW (or
	// rather its replicated copy), query the local DB for metadata,
	// read the data, and burn CPU.
	t1s := grid.TierSites(1)
	analysis := &workload.Activity{
		Name:         "analysis",
		Interarrival: workload.Poisson(src, cfg.AnalysisRate),
		MaxJobs:      cfg.AnalysisJobs,
		Emit: func(i int) {
			t1 := t1s[src.Intn(len(t1s))]
			produced := production.Emitted()
			if produced == 0 {
				return
			}
			file := workload.LHCFile(workload.RAW, src.Intn(produced))
			start := e.Now()
			e.Spawn(fmt.Sprintf("ana%04d", i), func(p *des.Process) {
				t1.DB.Query(p, 1e6) // metadata lookup
				if err := sys.Access(p, t1, file); err != nil {
					// Data not yet replicated here: the access fell
					// back to the T0 master over the WAN, which is
					// the modeled behavior; a true miss is a bug.
					panic(err)
				}
				t1.CPU.Run(p, cfg.LHC.AnaOps())
				anaJobs++
				anaTime.Observe(p.Now() - start)
			})
		},
	}
	analysis.Start(e)

	if cfg.Horizon > 0 {
		e.RunUntil(cfg.Horizon)
	} else {
		e.Run()
	}

	var dbq uint64
	for _, s := range grid.Sites {
		if s.DB != nil {
			dbq += s.DB.Queries()
		}
	}
	return Result{
		RawProduced:   production.Emitted(),
		Shipped:       agent.Shipped,
		AgentBacklog:  agent.Backlog,
		AgentMaxDelay: agent.MaxDelay,
		RecoJobs:      recoJobs,
		AnalysisJobs:  anaJobs,
		MeanRecoTime:  recoTime.Mean(),
		MeanAnaTime:   anaTime.Mean(),
		T0Utilization: recoCluster.Utilization(),
		WANBytes:      sys.WANBytes,
		End:           e.Now(),
		DBQueries:     dbq,
	}
}

func refReplayMonitoring(cfg Config, records []monitoring.Record) (MonitoringResult, error) {
	cfg.AnalysisJobs = 0 // the capture replaces the stochastic activity
	e, grid, sys, agent, recoCluster := build(cfg)
	_ = recoCluster

	// Produce the dataset quickly so replayed jobs find data.
	prodSrc := e.Stream("lhc-run")
	production := workload.LHCRun(cfg.LHC, prodSrc, func(i int, f *replication.File) {
		agent.Produce(f)
	})
	production.MaxJobs = cfg.Runs
	production.Start(e)

	t1ByName := map[string]*topology.Site{}
	for _, s := range grid.TierSites(1) {
		t1ByName[s.Name] = s
	}

	var anaTime metrics.Summary
	var anaJobs uint64
	applied := 0
	src := e.Stream("replay")
	err := monitoring.Replay(e, records, func(r monitoring.Record) {
		if r.Param != "submit_jobs" {
			return
		}
		t1 := t1ByName[r.Site]
		if t1 == nil {
			return
		}
		applied++
		n := int(r.Value)
		for j := 0; j < n; j++ {
			produced := production.Emitted()
			if produced == 0 {
				continue
			}
			file := workload.LHCFile(workload.RAW, src.Intn(produced))
			start := e.Now()
			e.Spawn(fmt.Sprintf("replay-ana-%d", anaJobs), func(p *des.Process) {
				t1.DB.Query(p, 1e6)
				if err := sys.Access(p, t1, file); err != nil {
					panic(err)
				}
				t1.CPU.Run(p, cfg.LHC.AnaOps())
				anaJobs++
				anaTime.Observe(p.Now() - start)
			})
		}
	})
	if err != nil {
		return MonitoringResult{}, err
	}
	if cfg.Horizon > 0 {
		e.RunUntil(cfg.Horizon)
	} else {
		e.Run()
	}
	var dbq uint64
	for _, s := range grid.Sites {
		if s.DB != nil {
			dbq += s.DB.Queries()
		}
	}
	return MonitoringResult{
		RecordsApplied: applied,
		AnalysisJobs:   anaJobs,
		MeanAnaTime:    anaTime.Mean(),
		DBQueries:      dbq,
	}, nil
}

func refRunTierStudy(seed uint64, linkGbps []float64, runs int, horizon float64) []TierStudyPoint {
	out := make([]TierStudyPoint, 0, len(linkGbps))
	for _, gbps := range linkGbps {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.SharedUplink = true
		cfg.T0T1Bps = gbps * 1e9 / 8
		cfg.Runs = runs
		cfg.AnalysisJobs = 0 // isolate the replication traffic
		cfg.T2PerT1 = 0
		cfg.Horizon = horizon
		// Production-era data taking: a 2 GB RAW file every ~10 s is a
		// 200 MB/s stream; shipped to T1Count subscribers it needs
		// ~6.4 Gbps of uplink — between the study's 2.5 and the
		// upgraded 30.
		cfg.LHC.RunPeriod = 10
		res := refRun(cfg)
		expected := uint64(res.RawProduced * cfg.T1Count)
		pct := 0.0
		if expected > 0 {
			pct = 100 * float64(res.Shipped) / float64(expected)
		}
		out = append(out, TierStudyPoint{
			LinkGbps:     gbps,
			Shipped:      res.Shipped,
			Expected:     expected,
			Backlog:      res.AgentBacklog,
			MaxDelay:     res.AgentMaxDelay,
			DeliveredPct: pct,
			Sufficient: res.AgentBacklog == 0 && res.Shipped == expected &&
				res.AgentMaxDelay < 6*cfg.LHC.RunPeriod,
		})
	}
	return out
}

// exact formats every field of a result struct, floats as their bits.
func exact(v any) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() == reflect.Float64 {
			fmt.Fprintf(&b, "%s=%x ", rv.Type().Field(i).Name, math.Float64bits(f.Float()))
			continue
		}
		fmt.Fprintf(&b, "%s=%v ", rv.Type().Field(i).Name, f.Interface())
	}
	return b.String()
}

// counted runs fn with every engine it builds observed, and returns
// the events executed and the schedule sequence reached, per engine.
func counted(fn func()) (executed, scheduled []uint64) {
	des.SetDefaultObserver(&des.Observer{Hook: func(ev obs.Event) {
		if ev.Seq == 1 || len(executed) == 0 {
			executed, scheduled = append(executed, 0), append(scheduled, 0)
		}
		executed[len(executed)-1]++
		if s := &scheduled[len(scheduled)-1]; ev.Seq > *s {
			*s = ev.Seq
		}
	}})
	defer des.SetDefaultObserver(nil)
	fn()
	return executed, scheduled
}

// TestTierModelMatchesProcessReference pins the tier model's event
// chains against the process bodies they replaced, on seeds 1–3: every
// TierStudyPoint field of lsbench's sweep, monarc.Run with analysis and
// T2 centres, and ReplayMonitoring are bit-identical, and each engine
// executes the same events and reaches the same schedule sequence.
func TestTierModelMatchesProcessReference(t *testing.T) {
	links := []float64{0.622, 1.25, 2.5, 10, 30, 40}
	records, err := monitoring.Parse(strings.NewReader(`
60 T1.0 submit_jobs 3
90 T1.1 submit_jobs 5
90 T1.3 submit_jobs 2
400 T1.2 submit_jobs 6
`))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Runs = 12
		cfg.LHC.RunPeriod = 30
		replay := DefaultConfig()
		replay.Seed, replay.Runs, replay.LHC.RunPeriod = seed, 6, 10
		cases := []struct {
			name       string
			event, ref func() string
		}{
			{"tier study", func() string {
				var s []string
				for _, p := range RunTierStudy(seed, links, 200, 4000) {
					s = append(s, exact(p))
				}
				return strings.Join(s, "\n")
			}, func() string {
				var s []string
				for _, p := range refRunTierStudy(seed, links, 200, 4000) {
					s = append(s, exact(p))
				}
				return strings.Join(s, "\n")
			}},
			{"run", func() string { return exact(Run(cfg)) }, func() string { return exact(refRun(cfg)) }},
			{"replay", func() string {
				res, err := ReplayMonitoring(replay, records)
				return exact(res) + fmt.Sprint(err)
			}, func() string {
				res, err := refReplayMonitoring(replay, records)
				return exact(res) + fmt.Sprint(err)
			}},
		}
		for _, c := range cases {
			var got, want string
			gotExec, gotSched := counted(func() { got = c.event() })
			wantExec, wantSched := counted(func() { want = c.ref() })
			if got != want {
				t.Fatalf("seed %d %s:\n got  %s\n want %s", seed, c.name, got, want)
			}
			if fmt.Sprint(gotExec, gotSched) != fmt.Sprint(wantExec, wantSched) {
				t.Fatalf("seed %d %s: executed %v scheduled %v, reference %v %v", seed, c.name, gotExec, gotSched, wantExec, wantSched)
			}
		}
	}
}

// TestTierStudyLeavesNoGoroutines: the sweep runs on the engine's
// goroutine alone (the process bodies left ~2 850 parked per sweep).
// Goroutines of earlier tests may still be exiting, so the count may
// fall but must not rise.
func TestTierStudyLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	RunTierStudy(1, []float64{0.622, 2.5, 30}, 200, 4000)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d across RunTierStudy", before, after)
	}
}
