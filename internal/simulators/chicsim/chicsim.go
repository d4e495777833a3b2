// Package chicsim reproduces the design of ChicagoSim (ChicSim), the
// University of Chicago's Data Grid simulator "designed to investigate
// scheduling strategies in conjunction with data location". Its
// architecture has "a configurable number of schedulers rather than
// one Resource Broker" and replicates data with a "push" model: "when
// a site contains a popular data file, it will replicate it to remote
// sites, rather than the 'pull' model used in OptorSim".
package chicsim

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/taxonomy"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Placement selects the scheduling strategy under study — ChicSim's
// central question is which of these wins for data-intensive loads.
type Placement int

const (
	// ComputeAware ignores data location (plain MCT).
	ComputeAware Placement = iota
	// DataAware runs jobs where their data already is.
	DataAware
)

// String names the placement strategy.
func (p Placement) String() string {
	if p == DataAware {
		return "data-aware"
	}
	return "compute-aware"
}

// Config parameterizes a ChicSim run.
type Config struct {
	Seed        uint64
	Sites       int
	Schedulers  int // configurable number of schedulers
	Files       int
	FileBytes   float64
	Jobs        int
	ZipfS       float64
	JobOps      float64
	ArrivalRate float64
	Placement   Placement
	Push        bool // enable push replication of popular files
	PushThresh  int
	PushFanout  int

	Cores   int
	Speed   float64
	LinkBps float64
	LinkLat float64
}

// DefaultConfig returns a moderate data-intensive scenario.
func DefaultConfig() Config {
	return Config{
		Seed: 1, Sites: 6, Schedulers: 2,
		Files: 150, FileBytes: 2e9,
		Jobs: 250, ZipfS: 1.0, JobOps: 5e8, ArrivalRate: 0.5,
		Placement: DataAware, Push: true, PushThresh: 4, PushFanout: 1,
		Cores: 8, Speed: 1e9, LinkBps: 30e6, LinkLat: 0.02,
	}
}

// Result summarizes a run.
type Result struct {
	Jobs          int
	MeanResponse  float64
	Makespan      float64
	LocalHitRatio float64
	WANBytes      float64
	Pushes        uint64
}

// Run executes the scenario: jobs each need one input file; the
// scheduler places them; the job's process stages data via the
// replication system and computes.
func Run(cfg Config) Result {
	if cfg.Sites < 2 || cfg.Jobs <= 0 || cfg.Schedulers <= 0 {
		panic(fmt.Sprintf("chicsim: bad config %+v", cfg))
	}
	e := des.NewEngine(des.WithSeed(cfg.Seed))
	datasetBytes := float64(cfg.Files) * cfg.FileBytes
	spec := topology.SiteSpec{
		Cores: cfg.Cores, CoreSpeed: cfg.Speed,
		// Each site can hold a healthy share of the dataset.
		DiskBytes: datasetBytes, DiskBps: 200e6, DiskChans: 4,
	}
	grid := topology.SiteGrid(e, cfg.Sites, spec, cfg.LinkBps, cfg.LinkLat, 2)
	net := netsim.NewNetwork(e, grid.Topo)
	sys := replication.NewSystem(e, net)
	mode := replication.ModeNone
	if cfg.Push {
		mode = replication.ModePush
		sys.SetPushConfig(replication.PushConfig{Threshold: cfg.PushThresh, Fanout: cfg.PushFanout})
	}
	for _, s := range grid.Sites {
		sys.AddStore(s, replication.EvictLRU, mode)
	}
	// Scatter master copies round-robin over the sites.
	files := make([]*replication.File, cfg.Files)
	for i := range files {
		files[i] = &replication.File{Name: fmt.Sprintf("dat%04d", i), Bytes: cfg.FileBytes}
		sys.Place(files[i], grid.Sites[i%cfg.Sites])
	}

	clusters := map[*topology.Site]*scheduler.Cluster{}
	for _, s := range grid.Sites {
		clusters[s] = scheduler.NewCluster(e, s.Name, cfg.Cores, cfg.Speed, scheduler.FCFS)
	}
	ctx := &scheduler.Context{
		Sites:    grid.Sites,
		Clusters: clusters,
		Locate:   func(name string) []*topology.Site { return sys.Catalog().Holders(name) },
	}
	// ChicSim's "configurable number of schedulers": each scheduler is
	// an independent placement agent sharing the same policy kind.
	schedulers := make([]scheduler.Policy, cfg.Schedulers)
	for i := range schedulers {
		if cfg.Placement == DataAware {
			schedulers[i] = scheduler.DataAwarePolicy{}
		} else {
			schedulers[i] = scheduler.MCTPolicy{}
		}
	}

	src := e.Stream("chic")
	zipf := rng.NewZipf(e.Stream("chic-pop"), cfg.Files, cfg.ZipfS)
	var response metrics.Summary
	makespan := 0.0
	act := &workload.Activity{
		Name:         "chic-jobs",
		Interarrival: workload.Poisson(src, cfg.ArrivalRate),
		MaxJobs:      cfg.Jobs,
		Emit: func(i int) {
			fileName := files[zipf.Draw()].Name
			job := &scheduler.Job{
				ID: i, Name: "chic-job", Ops: cfg.JobOps,
				InputFiles: []string{fileName},
			}
			site := schedulers[i%cfg.Schedulers].Select(job, ctx)
			job.Site = site
			start := e.Now()
			e.Spawn(fmt.Sprintf("chic%04d", i), func(p *des.Process) {
				if err := sys.Access(p, site, fileName); err != nil {
					panic(err)
				}
				clusters[site].Run(p, job)
				response.Observe(p.Now() - start)
				if p.Now() > makespan {
					makespan = p.Now()
				}
			})
		},
	}
	act.Start(e)
	e.Run()

	total := sys.LocalHits + sys.RemoteReads
	hit := 0.0
	if total > 0 {
		hit = float64(sys.LocalHits) / float64(total)
	}
	return Result{
		Jobs:          cfg.Jobs,
		MeanResponse:  response.Mean(),
		Makespan:      makespan,
		LocalHitRatio: hit,
		WANBytes:      sys.WANBytes,
		Pushes:        sys.Pushes,
	}
}

// Profile places ChicagoSim in the taxonomy: "a modular and extensible
// discrete event Data Grid simulator built on top of the C-based
// simulation language Parsec".
func Profile() *taxonomy.Profile {
	return &taxonomy.Profile{
		Name:       "ChicagoSim",
		Motivation: "scheduling strategies in conjunction with data location",
		Scope:      []taxonomy.Scope{taxonomy.ScopeScheduling, taxonomy.ScopeReplication},
		Components: []taxonomy.Component{
			taxonomy.CompHosts, taxonomy.CompNetwork, taxonomy.CompMiddleware, taxonomy.CompApps,
		},
		DynamicComponents: true,
		Behavior:          taxonomy.Probabilistic,
		Mechanics:         taxonomy.MechDES,
		DESKinds:          []taxonomy.DESKind{taxonomy.DESEventDriven},
		Execution:         taxonomy.ExecCentralized,
		MultiThreaded:     true,
		Queue:             taxonomy.QueueOLogN,
		JobMapping:        "Parsec entity processes",
		Spec:              []taxonomy.SpecStyle{taxonomy.SpecLanguage},
		Inputs:            []taxonomy.InputKind{taxonomy.InputGenerator},
		Outputs:           []taxonomy.OutputKind{taxonomy.OutTextual},
		Validation:        taxonomy.ValidationNone,
	}
}
