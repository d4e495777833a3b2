package experiments

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scheduler"
	"repro/internal/simulators/bricks"
	"repro/internal/simulators/gridsim"
	"repro/internal/simulators/simgrid"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E8CentralVsTier contrasts the Bricks "central model" (all jobs
// processed at one site, bricks.Run) with the tier model's organization
// (jobs processed at the sites they arise at) under rising load, the
// paper's two poles of resource organization. The tier rows run
// runTierProcessing: one scheduler.Cluster per client site on the
// central model's star, and no monarc code. They move far fewer WAN bytes.
func E8CentralVsTier(clientCounts []int) *metrics.Table {
	t := metrics.NewTable(
		"E8. Central model (Bricks) vs tier model (per-site clusters; no MONARC code)",
		"clients", "model", "mean response s", "makespan s", "WAN GB")
	for _, clients := range clientCounts {
		row := func(model string, response, makespan, wanBytes float64) {
			t.AddRow(fmt.Sprintf("%d", clients), model, fmt.Sprintf("%.1f", response),
				fmt.Sprintf("%.1f", makespan), fmt.Sprintf("%.3f", wanBytes/1e9))
		}
		// Central: all jobs ship their data to one 16-core site.
		bc := bricks.DefaultConfig()
		bc.Clients = clients
		bc.JobsPerClient = 20
		bc.ArrivalRate = 0.05
		central := bricks.Run(bc)
		row("central", central.MeanResponse, central.Makespan, central.WANBytesMoved)

		// Tier: the same total demand processed at per-client sites of
		// proportionally smaller capacity (same aggregate cores).
		response, makespan, wanBytes := runTierProcessing(clients, 20, 0.05, bc)
		row("tier", response, makespan, wanBytes)
	}
	return t
}

// runTierProcessing executes the Bricks workload shape with local
// processing: each client site owns a slice of the central capacity
// and runs its own jobs, exchanging only small control messages.
func runTierProcessing(clients, jobsPerClient int, rate float64, bc bricks.Config) (meanResponse, makespan, wanBytes float64) {
	e := des.NewEngine(des.WithSeed(bc.Seed))
	perSite := max(1, bc.ServerCores/clients)
	spec := topology.SiteSpec{Cores: perSite, CoreSpeed: bc.ServerSpeed}
	grid := topology.CentralModel(e, clients, topology.SiteSpec{}, spec, bc.LinkBps, bc.LinkLat)
	net := netsim.NewNetwork(e, grid.Topo)

	var response metrics.Summary
	for c := 0; c < clients; c++ {
		site := grid.Site(fmt.Sprintf("client%02d", c))
		cluster := scheduler.NewCluster(e, site.Name, perSite, bc.ServerSpeed, scheduler.FCFS)
		src := e.Stream(site.Name)
		central := grid.Site("central")
		act := &workload.Activity{
			Name:         site.Name,
			Interarrival: workload.Poisson(src, rate),
			MaxJobs:      jobsPerClient,
			Emit: func(i int) {
				j := &scheduler.Job{ID: i, Name: "local", Ops: src.Exp(1 / bc.MeanOps)}
				cluster.Submit(j, func(j *scheduler.Job) {
					response.Observe(j.ResponseTime())
					makespan = max(makespan, j.Finished)
					// Tier model still reports summaries upstream:
					// a small control message, not the data.
					net.Transfer(site.Net, central.Net, 1e4, nil)
				})
			},
		}
		act.Start(e)
	}
	e.Run()
	for _, l := range grid.Topo.Links() {
		wanBytes += l.BytesCarried()
	}
	return response.Mean(), makespan, wanBytes
}

// E10Brokering compares the scheduling-agent strategies of SimGrid
// (compile-time min-min/max-min, runtime greedy) with GridSim's
// economy brokering (time-optimize vs cost-optimize): who wins on
// makespan, and what the economy pays for its constraints.
func E10Brokering() *metrics.Table {
	t := metrics.NewTable(
		"E10. Broker strategies: SimGrid agents vs GridSim economy",
		"strategy", "makespan s", "mean response s", "spend", "notes")

	for _, s := range []simgrid.Strategy{
		simgrid.CompileTimeMinMin, simgrid.CompileTimeMaxMin, simgrid.RuntimeGreedy,
	} {
		cfg := simgrid.DefaultConfig()
		cfg.Strategy = s
		res := simgrid.Run(cfg)
		note := ""
		if res.PredictedMakespan > 0 {
			note = fmt.Sprintf("predicted %.1f", res.PredictedMakespan)
		}
		t.AddRow("simgrid/"+s.String(),
			fmt.Sprintf("%.1f", res.Makespan),
			fmt.Sprintf("%.1f", res.MeanResponse),
			"-", note)
	}

	for _, goal := range []scheduler.EconomyGoal{scheduler.TimeOptimize, scheduler.CostOptimize} {
		cfg := gridsim.DefaultConfig()
		cfg.Goal = goal
		res := gridsim.Run(cfg)
		name := "gridsim/economy-time"
		if goal == scheduler.CostOptimize {
			name = "gridsim/economy-cost"
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f", res.Makespan),
			fmt.Sprintf("%.1f", res.MeanResponse),
			fmt.Sprintf("%.0f", res.TotalSpend),
			fmt.Sprintf("%d rejected, %d misses", res.Rejected, res.DeadlineMisses))
	}
	return t
}

// E10aDAGScheduling extends E10 with SimGrid's original problem class:
// workflow (DAG) applications statically scheduled by HEFT on a
// heterogeneous platform, reporting the plan, the DES realization, and
// the critical-path lower bound for two workflow shapes.
func E10aDAGScheduling() (*metrics.Table, error) {
	t := metrics.NewTable(
		"E10a. Workflow (DAG) scheduling: HEFT plan vs realization vs bound",
		"workflow", "tasks", "planned s", "realized s", "CP bound s", "machines used")
	for _, shape := range []simgrid.DAGShape{simgrid.ShapeFanInOut, simgrid.ShapeChain} {
		cfg := simgrid.DefaultDAGConfig()
		cfg.Shape = shape
		if shape == simgrid.ShapeChain {
			cfg.Width = 8
		}
		res, err := simgrid.RunDAG(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRowf(shape.String(), res.Tasks, res.PlannedMakespan,
			res.RealizedMakespan, res.CriticalPathBound, res.MachinesUsed)
	}
	// A hand-built irregular graph exercises HEFT off the benchmark
	// shapes: two pipelines joining into a reducer.
	g := dag.NewGraph()
	a := g.AddTask("ingest-a", 2e9)
	b := g.AddTask("ingest-b", 3e9)
	fa := g.AddTask("filter-a", 4e9)
	fb := g.AddTask("filter-b", 1e9)
	red := g.AddTask("reduce", 2e9)
	g.AddDep(a, fa, 100e6)
	g.AddDep(b, fb, 100e6)
	g.AddDep(fa, red, 20e6)
	g.AddDep(fb, red, 20e6)
	machines := simgrid.DefaultDAGConfig().Machines
	plan, err := dag.HEFT(g, machines)
	if err != nil {
		return nil, err
	}
	e := des.NewEngine()
	real, err := dag.Execute(e, g, machines, plan)
	if err != nil {
		return nil, err
	}
	bound, _, err := g.CriticalPath(machines[3].Speed, machines[3].Bps)
	if err != nil {
		return nil, err
	}
	used := map[int]bool{}
	for _, m := range plan.Machine {
		used[m] = true
	}
	t.AddRowf("two-pipeline-reduce", g.Len(), plan.Makespan, real.Makespan, bound, len(used))
	return t, nil
}
