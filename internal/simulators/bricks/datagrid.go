package bricks

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The paper notes that "in its latest versions Bricks was extended, in
// order to evaluate the performance of various Data Grid application
// scenarios, with replica and disk management simulation
// capabilities." RunDataGrid reproduces that extension: the central
// model carries a dataset at the centre, client jobs read files
// through the replication system, and clients cache replicas on their
// own disks under LRU management.

// DataConfig parameterizes the Data Grid extension.
type DataConfig struct {
	Config
	Files       int
	FileBytes   float64
	FilesPerJob int
	ZipfS       float64
	// ClientCacheFraction sizes each client's disk as a fraction of
	// the dataset.
	ClientCacheFraction float64
}

// DefaultDataConfig returns a moderate central Data Grid scenario.
func DefaultDataConfig() DataConfig {
	cfg := DefaultConfig()
	cfg.InputBytes = 0 // data now flows through the replica system
	cfg.OutputBytes = 0
	return DataConfig{
		Config: cfg,
		Files:  100, FileBytes: 5e8, FilesPerJob: 2,
		ZipfS: 1.0, ClientCacheFraction: 0.1,
	}
}

// DataResult summarizes a Data Grid run.
type DataResult struct {
	Jobs          int
	MeanResponse  float64
	LocalHitRatio float64
	Pulls         uint64
	Evictions     uint64
	WANBytes      float64
}

// RunDataGrid executes the extended scenario: jobs run at the centre
// (the central model's defining constraint) but their input files are
// read through the replica system from wherever the nearest copy is —
// initially the centre's mass store, later the clients' caches, which
// also serve re-reads locally when a client resubmits against cached
// data.
func RunDataGrid(cfg DataConfig) DataResult {
	if cfg.Clients <= 0 || cfg.Files <= 0 {
		panic(fmt.Sprintf("bricks: bad data config %+v", cfg))
	}
	e := des.NewEngine(des.WithSeed(cfg.Seed))
	dataset := float64(cfg.Files) * cfg.FileBytes
	serverSpec := topology.SiteSpec{
		Cores: cfg.ServerCores, CoreSpeed: cfg.ServerSpeed,
		DiskBytes: 2 * dataset, DiskBps: 400e6, DiskChans: 8,
	}
	clientSpec := topology.SiteSpec{
		DiskBytes: dataset * cfg.ClientCacheFraction, DiskBps: 100e6, DiskChans: 2,
	}
	grid := topology.CentralModel(e, cfg.Clients, serverSpec, clientSpec, cfg.LinkBps, cfg.LinkLat)
	net := netsim.NewNetwork(e, grid.Topo)
	central := grid.Site("central")

	sys := replication.NewSystem(e, net)
	sys.AddStore(central, replication.EvictLRU, replication.ModeNone)
	for c := 0; c < cfg.Clients; c++ {
		sys.AddStore(grid.Site(fmt.Sprintf("client%02d", c)), replication.EvictLRU, replication.ModePull)
	}
	files := make([]*replication.File, cfg.Files)
	for i := range files {
		files[i] = &replication.File{Name: fmt.Sprintf("brick%04d", i), Bytes: cfg.FileBytes}
		sys.Place(files[i], central)
	}

	cluster := scheduler.NewCluster(e, "central", cfg.ServerCores, cfg.ServerSpeed, cfg.Discipline)
	zipf := rng.NewZipf(e.Stream("bricks-pop"), cfg.Files, cfg.ZipfS)
	var response metrics.Summary
	jobs := 0

	for c := 0; c < cfg.Clients; c++ {
		client := grid.Site(fmt.Sprintf("client%02d", c))
		src := e.Stream(client.Name)
		act := &workload.Activity{
			Name:         client.Name,
			Interarrival: workload.Poisson(src, cfg.ArrivalRate),
			MaxJobs:      cfg.JobsPerClient,
			Emit: func(i int) {
				needs := make([]string, cfg.FilesPerJob)
				for k := range needs {
					needs[k] = files[zipf.Draw()].Name
				}
				ops := src.Exp(1 / cfg.MeanOps)
				start := e.Now()
				e.Spawn(fmt.Sprintf("%s-job%03d", client.Name, i), func(p *des.Process) {
					// Stage inputs at the client (replicating into its
					// cache), then execute at the centre — the central
					// model's "all jobs processed at a single site".
					for _, name := range needs {
						if err := sys.Access(p, client, name); err != nil {
							panic(err)
						}
					}
					job := &scheduler.Job{ID: jobs, Name: "bricks-data", Ops: ops}
					cluster.Run(p, job)
					response.Observe(p.Now() - start)
					jobs++
				})
			},
		}
		act.Start(e)
	}
	e.Run()

	total := sys.LocalHits + sys.RemoteReads
	hit := 0.0
	if total > 0 {
		hit = float64(sys.LocalHits) / float64(total)
	}
	var evictions uint64
	for c := 0; c < cfg.Clients; c++ {
		evictions += sys.Store(grid.Site(fmt.Sprintf("client%02d", c))).Evictions
	}
	return DataResult{
		Jobs:          jobs,
		MeanResponse:  response.Mean(),
		LocalHitRatio: hit,
		Pulls:         sys.Pulls,
		Evictions:     evictions,
		WANBytes:      sys.WANBytes,
	}
}
