package replication_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/simulators/bricks"
	"repro/internal/simulators/chicsim"
	"repro/internal/simulators/monarc"
	"repro/internal/simulators/optorsim"
)

// pinned runs one model with a default observer and returns its
// engine's executed and scheduled event counts, its one System's
// counters and every store's, float fields as their IEEE bits.
func pinned(t *testing.T, run func() []float64) string {
	t.Helper()
	var executed, scheduled uint64
	des.SetDefaultObserver(&des.Observer{Hook: func(ev obs.Event) {
		executed++
		scheduled = max(scheduled, ev.Seq)
	}})
	defer des.SetDefaultObserver(nil)
	var fields []float64
	systems := replication.Systems(func() { fields = run() })
	if len(systems) != 1 {
		t.Fatalf("%d systems, want 1", len(systems))
	}
	sys := systems[0]
	var b strings.Builder
	fmt.Fprintf(&b, "events %d/%d result", executed, scheduled)
	for _, x := range fields {
		fmt.Fprintf(&b, " %x", math.Float64bits(x))
	}
	fmt.Fprintf(&b, " hits %d remote %d pulls %d pushes %d wan %x stores",
		sys.LocalHits, sys.RemoteReads, sys.Pulls, sys.Pushes, math.Float64bits(sys.WANBytes))
	for _, st := range sys.Stores() {
		fmt.Fprintf(&b, " %d/%d/%d", st.Evictions, st.Admitted, st.Refused)
	}
	return b.String()
}

// TestDataGridPinned records, bit for bit, what the Data Grid
// personalities get from the replication layer: OptorSim under each
// eviction policy, ChicagoSim with push replication, Bricks' central
// Data Grid and a MONARC run with analysis jobs and T2 centres. Each
// line holds the engine's executed/scheduled counts, the model's
// result fields, the System's counters and every store's evictions,
// admissions and refusals, so a catalog or store lookup that answers
// differently, or an eviction that picks another victim, shows here.
func TestDataGridPinned(t *testing.T) {
	got := map[string]string{}
	for _, opt := range []optorsim.Optimizer{optorsim.AlwaysLRU, optorsim.AlwaysLFU, optorsim.Economic} {
		cfg := optorsim.DefaultConfig()
		cfg.Sites, cfg.Files, cfg.Jobs, cfg.Optimizer = 4, 60, 80, opt
		cfg.CacheFraction = 0.05 // three files a site: economic refuses some
		got["optorsim."+opt.String()] = pinned(t, func() []float64 {
			r := optorsim.Run(cfg)
			return []float64{float64(r.Jobs), r.MeanJobTime, r.LocalHitRatio, float64(r.RemoteReads),
				float64(r.Pulls), float64(r.Evictions), r.WANBytes, r.Makespan}
		})
	}
	ccfg := chicsim.DefaultConfig()
	ccfg.Sites, ccfg.Files, ccfg.Jobs = 4, 60, 120
	got["chicsim"] = pinned(t, func() []float64 {
		r := chicsim.Run(ccfg)
		return []float64{float64(r.Jobs), r.MeanResponse, r.Makespan, r.LocalHitRatio, r.WANBytes, float64(r.Pushes)}
	})
	bcfg := bricks.DefaultDataConfig()
	bcfg.Clients, bcfg.JobsPerClient = 4, 15
	got["bricks"] = pinned(t, func() []float64 {
		r := bricks.RunDataGrid(bcfg)
		return []float64{float64(r.Jobs), r.MeanResponse, r.LocalHitRatio, float64(r.Pulls), float64(r.Evictions), r.WANBytes}
	})
	mcfg := monarc.DefaultConfig()
	got["monarc"] = pinned(t, func() []float64 {
		r := monarc.Run(mcfg)
		return []float64{float64(r.RawProduced), float64(r.Shipped), float64(r.AgentBacklog), r.AgentMaxDelay,
			float64(r.RecoJobs), float64(r.AnalysisJobs), r.MeanRecoTime, r.MeanAnaTime, r.T0Utilization,
			r.WANBytes, r.End, float64(r.DBQueries)}
	})

	want := map[string]string{
		"bricks":              "events 726/814 result 404e000000000000 407b0516cd50d125 3fd0888888888889 4056400000000000 4040800000000000 4224b8d03a000000 hits 31 remote 89 pulls 89 pushes 0 wan 4224b8d03a000000 stores 0/100/0 6/16/0 8/18/0 11/21/0 8/18/0",
		"chicsim":             "events 703/717 result 405e000000000000 4025cb71644855a8 406c880a9caa9d06 3ff0000000000000 421bf08eb0000000 4024000000000000 hits 120 remote 0 pulls 0 pushes 10 wan 421bf08eb0000000 stores 0/21/0 0/18/0 0/16/0 0/15/0",
		"monarc":              "events 864/924 result 4034000000000000 4054000000000000 0 4024e66666666700 4034000000000000 4047000000000000 4049000000000000 40120f5c28f5c29e 3f529c050e4f51ab 4242a05f20000000 40cade399d257cf9 4047000000000000 hits 46 remote 0 pulls 0 pushes 0 wan 4242a05f20000000 stores 0/20/0 0/20/0 0/20/0 0/20/0 0/20/0 0/0/0 0/0/0 0/0/0 0/0/0 0/0/0 0/0/0 0/0/0 0/0/0",
		"optorsim.always-lfu": "events 1411/1601 result 4054000000000000 409b869e130d9035 3fc9111111111111 4068200000000000 4068200000000000 4063200000000000 424677d925000000 40a4d9ea74b36518 hits 47 remote 193 pulls 193 pushes 0 wan 424677d925000000 stores 59/62/0 35/38/0 34/37/0 25/28/0 0/60/0",
		"optorsim.always-lru": "events 1478/1686 result 4054000000000000 409f40e89fd9dea7 3fc0888888888889 406a200000000000 406a200000000000 4064a00000000000 424854af75000000 40a709ea74b36518 hits 31 remote 209 pulls 209 pushes 0 wan 424854af75000000 stores 63/66/0 41/44/0 35/38/0 26/29/0 0/60/0",
		"optorsim.economic":   "events 1391/1583 result 4054000000000000 409b84e53d89694e 3fc8888888888889 4068400000000000 4065200000000000 4060400000000000 424695a68a000000 40a4d9ea74b36518 hits 46 remote 194 pulls 169 pushes 0 wan 424695a68a000000 stores 59/62/0 12/15/25 34/37/0 25/28/0 0/60/0",
	}
	for k, g := range got {
		if w := want[k]; w != g {
			t.Errorf("%s:\n got  %s\n want %s", k, g, w)
		}
	}
}
