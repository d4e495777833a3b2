// Scheduling comparison: local queue disciplines on one cluster, then
// grid-level brokering policies, then GridSim-style economy goals —
// one tour through the middleware layer of the taxonomy, wiring the
// engine, grid, clusters and broker by hand.
package main

import (
	"fmt"
	"os"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scheduler"
	"repro/internal/simulators/gridsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	disciplines()
	brokering()
	economy()
}

// disciplines contrasts FCFS, SJF, EDF and EASY backfilling on one
// 8-core cluster fed by a bursty arrival process.
func disciplines() {
	t := metrics.NewTable("Local queue disciplines (8 cores, 300 mixed jobs)",
		"discipline", "mean wait s", "mean response s", "makespan s", "utilization")
	for _, d := range []scheduler.Discipline{
		scheduler.FCFS, scheduler.SJF, scheduler.EDF, scheduler.EASYBackfill,
	} {
		e := des.NewEngine(des.WithSeed(42))
		cluster := scheduler.NewCluster(e, "cluster", 8, 1e9, d)
		src := e.Stream("jobs")
		mix := workload.NewMix(src,
			workload.JobClass{Name: "short", Weight: 6, Ops: func() float64 { return src.Exp(1 / 2e9) }},
			workload.JobClass{Name: "long", Weight: 1, Ops: func() float64 { return src.Exp(1 / 40e9) }},
			workload.JobClass{Name: "wide", Weight: 1, Ops: func() float64 { return src.Exp(1 / 10e9) }, Cores: 4},
		)
		var wait, response metrics.Summary
		makespan := 0.0
		act := &workload.Activity{
			Name:         "arrivals",
			Interarrival: workload.Poisson(src, 0.8),
			MaxJobs:      300,
			Emit: func(i int) {
				j := mix.Draw()
				j.Deadline = e.Now() + 120
				cluster.Submit(j, func(j *scheduler.Job) {
					wait.Observe(j.WaitTime())
					response.Observe(j.ResponseTime())
					if j.Finished > makespan {
						makespan = j.Finished
					}
				})
			},
		}
		act.Start(e)
		e.Run()
		t.AddRowf(d.String(), wait.Mean(), response.Mean(), makespan, cluster.Utilization())
	}
	must(t.Write(os.Stdout))
	fmt.Println()
}

// brokering contrasts grid-level placement policies over a
// heterogeneous three-site grid.
func brokering() {
	t := metrics.NewTable("Brokering policies (3 heterogeneous sites, 200 jobs)",
		"policy", "mean response s", "makespan s")
	policies := []scheduler.Policy{
		&scheduler.RoundRobinPolicy{},
		scheduler.LeastLoadedPolicy{},
		scheduler.MCTPolicy{},
	}
	for _, pol := range policies {
		e := des.NewEngine(des.WithSeed(7))
		grid := topology.NewGrid(e)
		origin := grid.AddSite("users", topology.SiteSpec{})
		ctx := &scheduler.Context{Clusters: map[*topology.Site]*scheduler.Cluster{}}
		for i, sp := range []float64{5e8, 1e9, 4e9} {
			site := grid.AddSite(fmt.Sprintf("site%d", i), topology.SiteSpec{Cores: 4, CoreSpeed: sp})
			grid.Link(origin, site, 100e6, 0.01)
			ctx.Sites = append(ctx.Sites, site)
			ctx.Clusters[site] = scheduler.NewCluster(e, site.Name, site.Spec.Cores, site.Spec.CoreSpeed, scheduler.FCFS)
		}
		grid.Topo.ComputeRoutes()
		broker := scheduler.NewBroker(pol.Name(), e, netsim.NewNetwork(e, grid.Topo), ctx, pol)
		var response metrics.Summary
		makespan := 0.0
		broker.OnDone(func(j *scheduler.Job) {
			response.Observe(j.ResponseTime())
			if j.Finished > makespan {
				makespan = j.Finished
			}
		})
		src := e.Stream("arrivals")
		act := &workload.Activity{
			Name:         "users",
			Interarrival: workload.Poisson(src, 2),
			MaxJobs:      200,
			Emit: func(i int) {
				broker.Submit(&scheduler.Job{
					ID: i, Name: "job", Ops: src.Exp(1 / 4e9),
					InputBytes: 1e6, Origin: origin,
				})
			},
		}
		act.Start(e)
		e.Run()
		t.AddRowf(pol.Name(), response.Mean(), makespan)
	}
	must(t.Write(os.Stdout))
	fmt.Println()
}

// economy runs the GridSim personality under both optimization goals.
func economy() {
	t := metrics.NewTable("Economy brokering (deadline+budget, 200 gridlets)",
		"goal", "mean response s", "total spend", "rejected", "deadline misses")
	for _, goal := range []scheduler.EconomyGoal{scheduler.TimeOptimize, scheduler.CostOptimize} {
		cfg := gridsim.DefaultConfig()
		cfg.Goal = goal
		res := gridsim.Run(cfg)
		name := "time-optimize"
		if goal == scheduler.CostOptimize {
			name = "cost-optimize"
		}
		t.AddRowf(name, res.MeanResponse, res.TotalSpend, res.Rejected, res.DeadlineMisses)
	}
	must(t.Write(os.Stdout))
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
