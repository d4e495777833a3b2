package experiments

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simulators/chicsim"
	"repro/internal/simulators/monarc"
	"repro/internal/simulators/optorsim"
)

// E7TierStudy reproduces claim C6, the Legrand et al. (2005) MONARC
// study: sweep the shared T0 uplink capacity and report whether the
// replication agent sustains CMS/ATLAS-scale production. The paper's
// result — 2.5 Gbps insufficient, the upgraded 10-30 Gbps region
// sufficient — appears as the "sufficient" column flipping.
func E7TierStudy(runs int, horizon float64) *metrics.Table {
	points := monarc.RunTierStudy(1, []float64{0.622, 1.25, 2.5, 10, 30, 40}, runs, horizon)
	t := metrics.NewTable(
		"E7. T0/T1 replication study: link capacity sweep",
		"link Gbps", "delivered %", "backlog", "max delay s", "sufficient")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%.3g", p.LinkGbps),
			fmt.Sprintf("%.1f", p.DeliveredPct),
			fmt.Sprintf("%d", p.Backlog),
			fmt.Sprintf("%.1f", p.MaxDelay),
			fmt.Sprintf("%v", p.Sufficient))
	}
	return t
}

// E7aGranularity is the network-granularity ablation of the taxonomy:
// the same bulk transfer workload under the flow-level and the
// packet-level fabric — near-identical transfer times, orders of
// magnitude apart in simulation cost ("a time consuming operation that
// leads to better output results").
func E7aGranularity(transfers int, bytes float64) *metrics.Table {
	t := metrics.NewTable(
		"E7a. Flow-level vs packet-level network granularity",
		"fabric", "transfers", "last done (sim s)", "events", "wall ms")
	run := func(name string, mk func(e *des.Engine, topo *netsim.Topology) netsim.Fabric) {
		e := des.NewEngine(des.WithSeed(5))
		topo := netsim.NewTopology()
		a, b, c := topo.AddNode("a"), topo.AddNode("b"), topo.AddNode("c")
		topo.Connect(a, b, 100e6, 0.01)
		topo.Connect(b, c, 100e6, 0.01)
		fabric := mk(e, topo)
		last := 0.0
		src := e.Stream("xfer")
		for i := 0; i < transfers; i++ {
			at := src.Float64() * 10
			e.At(at, func() {
				fabric.Transfer(a, c, bytes, func() { last = max(last, e.Now()) })
			})
		}
		start := time.Now()
		e.Run()
		wall := float64(time.Since(start).Microseconds()) / 1000
		t.AddRowf(name, transfers, last, e.Stats().Executed, wall)
	}
	run("flow-level", func(e *des.Engine, topo *netsim.Topology) netsim.Fabric {
		return netsim.NewNetwork(e, topo)
	})
	run("packet-level (MTU 1500)", func(e *des.Engine, topo *netsim.Topology) netsim.Fabric {
		return netsim.NewPacketNet(e, topo, 1500)
	})
	return t
}

// E9PullVsPush contrasts OptorSim's pull replication with ChicagoSim's
// push replication (and the no-replication baseline) across file
// popularity skews, reporting local-hit ratio and WAN traffic.
func E9PullVsPush(zipfS []float64) *metrics.Table {
	t := metrics.NewTable(
		"E9. Pull (OptorSim) vs push (ChicagoSim) replication",
		"zipf s", "strategy", "hit ratio", "WAN GB", "mean job s")
	for _, s := range zipfS {
		row := func(strategy string, hit, wanBytes, jobTime float64) {
			t.AddRow(fmt.Sprintf("%.2g", s), strategy, fmt.Sprintf("%.3f", hit),
				fmt.Sprintf("%.2f", wanBytes/1e9), fmt.Sprintf("%.1f", jobTime))
		}
		// No replication, then pull with OptorSim's LRU and economic
		// optimizers.
		oc := optorsim.DefaultConfig()
		oc.Sites, oc.Files, oc.Jobs = 5, 80, 200
		oc.ZipfS = s
		for i, o := range []optorsim.Optimizer{optorsim.NoReplication, optorsim.AlwaysLRU, optorsim.Economic} {
			oc.Optimizer = o
			r := optorsim.Run(oc)
			row([]string{"none", "pull-lru", "pull-economic"}[i], r.LocalHitRatio, r.WANBytes, r.MeanJobTime)
		}

		// Push (ChicagoSim) with compute-aware placement, so the gain
		// is attributable to replication rather than placement.
		cc := chicsim.DefaultConfig()
		cc.Sites, cc.Files, cc.Jobs = 5, 80, 200
		cc.ZipfS = s
		cc.Placement = chicsim.ComputeAware
		cc.Push = true
		cc.PushThresh = 3
		cc.PushFanout = 2
		push := chicsim.Run(cc)
		row("push", push.LocalHitRatio, push.WANBytes, push.MeanResponse)
	}
	return t
}
