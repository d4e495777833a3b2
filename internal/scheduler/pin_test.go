package scheduler_test

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simulators/bricks"
	"repro/internal/simulators/chicsim"
	"repro/internal/topology"
)

// counted runs fn with a default observer that counts the events its
// one engine executes and the highest sequence number it schedules.
func counted(fn func()) (executed, scheduled uint64) {
	des.SetDefaultObserver(&des.Observer{Hook: func(ev obs.Event) {
		executed++
		scheduled = max(scheduled, ev.Seq)
	}})
	defer des.SetDefaultObserver(nil)
	fn()
	return executed, scheduled
}

// brokerRun drives one Broker over two clusters that share a staging
// fabric, with input and output transfers, prices, and a crash of the
// fast cluster mid-run, so both a completed and a killed job pass
// through the broker's wait on the cluster.
func brokerRun() (b *scheduler.Broker, e *des.Engine, finished float64, failed uint64) {
	e = des.NewEngine(des.WithSeed(3))
	g := topology.NewGrid(e)
	origin := g.AddSite("origin", topology.SiteSpec{})
	fast := g.AddSite("fast", topology.SiteSpec{Cores: 2, CoreSpeed: 200})
	slow := g.AddSite("slow", topology.SiteSpec{Cores: 2, CoreSpeed: 100})
	g.Link(origin, fast, 1e6, 0.01)
	g.Link(origin, slow, 1e6, 0.01)
	g.Link(fast, slow, 1e6, 0.01)
	g.Topo.ComputeRoutes()
	fastC := scheduler.NewCluster(e, "fast", 2, 200, scheduler.FCFS)
	ctx := &scheduler.Context{
		Sites: []*topology.Site{fast, slow},
		Clusters: map[*topology.Site]*scheduler.Cluster{
			fast: fastC,
			slow: scheduler.NewCluster(e, "slow", 2, 100, scheduler.FCFS),
		},
		CostPerCoreSec: map[*topology.Site]float64{fast: 3, slow: 1},
	}
	b = scheduler.NewBroker("b", e, netsim.NewNetwork(e, g.Topo), ctx, scheduler.MCTPolicy{})
	b.OnDone(func(j *scheduler.Job) {
		finished += j.Finished
		if j.Failed {
			failed++
		}
	})
	src := e.Stream("pin")
	for i := 0; i < 40; i++ {
		j := &scheduler.Job{ID: i, Name: "j", Ops: src.Exp(1.0 / 800), Origin: origin,
			InputBytes: src.Exp(1.0 / 2e5), OutputBytes: 1e4}
		e.Schedule(src.Exp(1), func() { b.Submit(j) })
	}
	e.Schedule(12, fastC.Fail)
	e.Schedule(20, fastC.Recover)
	e.Run()
	return b, e, finished, failed
}

// TestClusterWaitersPinned records, bit for bit, the results of the
// three models whose processes block on a cluster job — chicsim.Run,
// bricks.RunDataGrid and a scheduler.Broker run — and each engine's
// executed and scheduled event counts. Float fields are compared as
// their IEEE bits, so a wait that moves one event shows here.
func TestClusterWaitersPinned(t *testing.T) {
	bits := math.Float64bits
	got := map[string]uint64{}

	ccfg := chicsim.DefaultConfig()
	ccfg.Sites, ccfg.Files, ccfg.Jobs = 4, 60, 120
	var cr chicsim.Result
	got["chicsim.executed"], got["chicsim.scheduled"] = counted(func() { cr = chicsim.Run(ccfg) })
	got["chicsim.Jobs"] = uint64(cr.Jobs)
	got["chicsim.MeanResponse"] = bits(cr.MeanResponse)
	got["chicsim.Makespan"] = bits(cr.Makespan)
	got["chicsim.LocalHitRatio"] = bits(cr.LocalHitRatio)
	got["chicsim.WANBytes"] = bits(cr.WANBytes)
	got["chicsim.Pushes"] = cr.Pushes

	bcfg := bricks.DefaultDataConfig()
	bcfg.Clients, bcfg.JobsPerClient = 4, 15
	var br bricks.DataResult
	got["bricks.executed"], got["bricks.scheduled"] = counted(func() { br = bricks.RunDataGrid(bcfg) })
	got["bricks.Jobs"] = uint64(br.Jobs)
	got["bricks.MeanResponse"] = bits(br.MeanResponse)
	got["bricks.LocalHitRatio"] = bits(br.LocalHitRatio)
	got["bricks.Pulls"] = br.Pulls
	got["bricks.Evictions"] = br.Evictions
	got["bricks.WANBytes"] = bits(br.WANBytes)

	b, e, finished, failed := brokerRun()
	st := e.Stats()
	got["broker.executed"], got["broker.scheduled"] = st.Executed, st.Scheduled
	got["broker.Completed"] = b.Completed
	got["broker.Response"] = bits(b.Response.Mean())
	got["broker.Wait"] = bits(b.Wait.Mean())
	got["broker.Spend"] = bits(b.Spend)
	got["broker.finished"] = bits(finished)
	got["broker.failed"] = failed
	got["broker.end"] = bits(e.Now())

	want := map[string]uint64{
		"chicsim.executed":      0x2bf,
		"chicsim.scheduled":     0x2cd,
		"chicsim.Jobs":          0x78,
		"chicsim.MeanResponse":  0x4025cb71644855a8,
		"chicsim.Makespan":      0x406c880a9caa9d06,
		"chicsim.LocalHitRatio": 0x3ff0000000000000,
		"chicsim.WANBytes":      0x421bf08eb0000000,
		"chicsim.Pushes":        0xa,

		"bricks.executed":      0x2d6,
		"bricks.scheduled":     0x32e,
		"bricks.Jobs":          0x3c,
		"bricks.MeanResponse":  0x407b0516cd50d125,
		"bricks.LocalHitRatio": 0x3fd0888888888889,
		"bricks.Pulls":         0x59,
		"bricks.Evictions":     0x21,
		"bricks.WANBytes":      0x4224b8d03a000000,

		"broker.executed":  0x190,
		"broker.scheduled": 0x1bc,
		"broker.Completed": 0x28,
		"broker.Response":  0x4040b058c8ee8162,
		"broker.Wait":      0x403b513aa71ed335,
		"broker.Spend":     0x407e51509834d3f0,
		"broker.finished":  0x409583905f723a0d,
		"broker.failed":    0x2,
		"broker.end":       0x4051988adc069793,
	}
	for k, g := range got {
		if w := want[k]; w != g {
			t.Errorf("%s = %#x, want %#x", k, g, w)
		}
	}
}
