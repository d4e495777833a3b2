package distsim

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"repro/internal/chaos"
	"repro/internal/obs"
)

// poolForced is internal/pool's unexported test hook, the mode every
// pool created from now on is forced into: 0 leaves the choice to the
// pool's measurements.
//
//go:linkname poolForced repro/internal/pool.forced
var poolForced uint8

// poolAlternate is pool.alternate: inline and dispatched Runs in turn.
const poolAlternate = 3

// layout is a row group of the fault matrix: a scenario, the coordinator
// tune that makes it what it is, what shows that it did, and where its
// drills strike.
type layout struct {
	name    string
	scn     scenario
	tune    func(*Coordinator)
	engaged func(*Coordinator) bool // true of every coordinator of a run
	every   int                     // the kill and resume drills' checkpoint cadence
	crash   uint64                  // the barrier the restart drills kill the coordinator at
}

var layouts = []layout{
	{"dense", rtScn, nil, func(c *Coordinator) bool { return c.WindowsSkipped == 0 }, 1, 3},
	// Several skipped stretches lie between a cut and the kill, and the
	// coordinator's crash falls between skipped gaps.
	{"sparse", skScn, nil, func(c *Coordinator) bool {
		return c.WindowsSkipped > 0 && c.Windows < skScn.windows()/2
	}, 4, 2},
	// The kill and the crash come after the first migration.
	{"skewed", mgScn, rebalancing, func(c *Coordinator) bool { return c.Migrations > 0 }, 1, 6},
}

// matrixChaos attacks both directions of the wire with drops,
// duplicates, corruption and resets. Delay and jitter sleep on the wall
// clock, and reorder stalls a window per hit: their own tests
// (chaos_e2e_test.go) cover them.
var matrixChaos = [2]chaos.Config{
	{Seed: 101, Drop: 0.03, Dup: 0.1, Corrupt: 0.02, Reset: 0.02},
	{Seed: 201, Drop: 0.03, Dup: 0.1, Corrupt: 0.02, Reset: 0.02},
}

// parkOutage is an outage longer than a worker's first connectAttempts
// reconnect attempts (about 6 s on the scripted clock, env.go's table):
// the workers are parked, redialing about a second apart, when the
// restart comes.
const parkOutage = 20 * time.Second

// fault is a column of the matrix: a drill that runs the layout with
// tune on every coordinator and wtune on every worker, and returns the
// run's coordinators in order, and the recovery rung it must take.
type fault struct {
	name       string
	chaos      bool // workers are re-adopted mid-run; without chaos none may
	recoveries int  // the last coordinator's rollback recoveries
	readopted  int  // and the workers it re-adopted
	run        func(t *testing.T, l layout, tune func(*Coordinator), wtune func(*Worker) *Worker) []*Coordinator
}

var faults = []fault{
	{"clean", false, 0, 0, func(t *testing.T, l layout, tune func(*Coordinator), wtune func(*Worker) *Worker) []*Coordinator {
		c := l.scn.coordinator(tune)
		launch(t, c, l.scn.pair(wtune))
		return []*Coordinator{c}
	}},
	{"chaos", true, 0, 0, func(t *testing.T, l layout, tune func(*Coordinator), wtune func(*Worker) *Worker) []*Coordinator {
		c := l.scn.coordinator(tune)
		chaosLaunch(t, c, l.scn.pair(wtune), &matrixChaos[0], &matrixChaos[1])
		return []*Coordinator{c}
	}},
	{"kill", false, 1, 0, func(t *testing.T, l layout, tune func(*Coordinator), wtune func(*Worker) *Worker) []*Coordinator {
		c := l.scn.coordinator(func(c *Coordinator) {
			tune(c)
			c.CheckpointEvery = l.every
			c.MaxRecoveries = 1
		})
		l.scn.killAndRecover(t, c, nil, wtune)
		return []*Coordinator{c}
	}},
	{"resume", false, 0, 0, func(t *testing.T, l layout, tune func(*Coordinator), wtune func(*Worker) *Worker) []*Coordinator {
		c1, c2 := l.scn.failThenResume(t, func(c *Coordinator) {
			tune(c)
			c.CheckpointEvery = l.every
		}, wtune)
		return []*Coordinator{c1, c2}
	}},
	// The journal only: with no checkpoint file to roll back to, only
	// re-adoption at the journal's tip can finish the run. The kill comes
	// just after barrier crash's journal record.
	{"restart", false, 0, 2, func(t *testing.T, l layout, tune func(*Coordinator), wtune func(*Worker) *Worker) []*Coordinator {
		c1, c2 := l.scn.crashRestart(t, tune, afterRecord(l.crash), l.scn.pair(wtune), parkOutage, nil)
		return []*Coordinator{c1, c2}
	}},
	{"restart-chaos", true, 0, 2, func(t *testing.T, l layout, tune func(*Coordinator), wtune func(*Worker) *Worker) []*Coordinator {
		ws := l.scn.pair(wtune)
		c1, c2 := l.scn.crashRestart(t, tune, afterRecord(l.crash), ws, 0, chaosWrap(ws, &matrixChaos[0], &matrixChaos[1], simDial))
		return []*Coordinator{c1, c2}
	}},
	// The kill comes once every worker has executed window crash, before
	// the coordinator hears of it: the journal trails the workers by one
	// window, the restart re-sends it, and each worker answers with the
	// done frame it kept.
	{"restart-ahead", false, 0, 2, func(t *testing.T, l layout, tune func(*Coordinator), wtune func(*Worker) *Worker) []*Coordinator {
		c1, c2 := l.scn.crashRestart(t, tune, ahead(l.crash, 2), l.scn.pair(wtune), 0, nil)
		return []*Coordinator{c1, c2}
	}},
}

// TestFaultMatrix is the cluster's validation contract as one table:
// every layout, at every thread count, observed or not, under every
// fault, finishes bit-identical to the single-process reference, and
// every cell checks the invariants the run keeps on the way (checkCell;
// each restart cell's harness also checks the journal tip its kill
// left). Cells are named layout/threads/obs/fault.
func TestFaultMatrix(t *testing.T) {
	// poolAlternate is a copy of pool.alternate: prove it still alternates.
	poolForced = poolAlternate
	h := NewWorkerWindowBench(2, 4, 8, 0.3, 5, 0, 1, 0)
	for range 10 {
		h.Window()
		h.Deliver()
	}
	st := h.PoolStats()
	h.Close()
	poolForced = 0
	if st.Inline != 5 || st.Dispatched != 5 {
		t.Fatalf("pool forced to alternate ran %+v over 10 windows", st)
	}

	threadings := []struct {
		name  string
		n     int
		force uint8
	}{{"threads=1", 1, 0}, {"threads=4", 4, 0}, {"threads=4-alternate", 4, poolAlternate}}
	for _, l := range layouts {
		ref := l.scn.reference()
		// The unfaulted sequential run: the lattice walk clean and chaos
		// runs must repeat.
		base := l.scn.coordinator(l.tune)
		launch(t, base, l.scn.pair())
		for _, th := range threadings {
			for _, obsOn := range []bool{false, true} {
				for _, f := range faults {
					name := fmt.Sprintf("%s/%s/obs=%s/%s", l.name, th.name, map[bool]string{false: "off", true: "on"}[obsOn], f.name)
					t.Run(name, func(t *testing.T) {
						poolForced = th.force
						defer func() { poolForced = 0 }()
						before := runtime.NumGoroutine()
						var cos []*ClusterObs
						tune := func(c *Coordinator) {
							if l.tune != nil {
								l.tune(c)
							}
							if obsOn {
								cos = append(cos, c.EnableObservability(1, 1<<10))
							}
						}
						cs := f.run(t, l, tune, threads(th.n))
						checkCell(t, l, f, th.n, ref, base, cs, cos)
						wantGoroutines(t, before)
					})
				}
			}
		}
	}
}

// checkCell asserts what a finished cell must show: cs are its
// coordinators in order, cos their observers when it is observed.
func checkCell(t *testing.T, l layout, f fault, threads int, ref []uint64, base *Coordinator, cs []*Coordinator, cos []*ClusterObs) {
	t.Helper()
	c := cs[len(cs)-1]
	// 1. Bit-identical to the single-process reference.
	wantCounts(t, "run", c, ref)
	// 2. Every window of the lattice, executed or skipped, once.
	if lattice(c) != l.scn.windows() {
		t.Fatalf("executed %d + skipped %d != lattice %d", c.Windows, c.WindowsSkipped, l.scn.windows())
	}
	if f.recoveries == 0 && len(cs) == 1 && (c.Windows != base.Windows || c.WindowsSkipped != base.WindowsSkipped) {
		t.Fatalf("executed %d + skipped %d windows, the unfaulted run %d + %d", c.Windows, c.WindowsSkipped, base.Windows, base.WindowsSkipped)
	}
	// 3. Conservation: the workers' engines executed what the unfaulted
	// run's did, whatever was rolled back, resumed or answered again.
	if executed(c) != executed(base) {
		t.Fatalf("workers executed %d events, the unfaulted run %d", executed(c), executed(base))
	}
	// 4. The recovery rung the fault calls for, and no other.
	reconnects := 0
	for i, ci := range cs {
		reconnects += ci.Reconnects
		// 5. The layout engaged, in every attempt.
		if !l.engaged(ci) {
			t.Fatalf("coordinator %d of %d did not run the %s layout: %d windows, %d skipped, %d migrations",
				i+1, len(cs), l.name, ci.Windows, ci.WindowsSkipped, ci.Migrations)
		}
	}
	if c.Recoveries != f.recoveries || c.Readopted != f.readopted || (reconnects > 0) != f.chaos {
		t.Fatalf("%d recoveries, %d re-adopted, %d reconnects; want %d, %d and reconnects only under chaos",
			c.Recoveries, c.Readopted, reconnects, f.recoveries, f.readopted)
	}
	// 6. The final LP sets partition the LPs.
	owned := make([]bool, c.NLPs)
	for _, ws := range c.WorkerStats {
		for _, lp := range ws.LPs {
			if lp < 0 || lp >= c.NLPs || owned[lp] {
				t.Fatalf("final LP sets %v do not partition %d LPs", c.WorkerStats, c.NLPs)
			}
			owned[lp] = true
		}
	}
	if slices.Contains(owned, false) {
		t.Fatalf("final LP sets %v do not partition %d LPs", c.WorkerStats, c.NLPs)
	}
	// 7. What the observers saw adds up: each coordinator's histograms
	// hold its own incarnation's events, so the run's sum is what the
	// workers executed, and every merged trace re-parses; the last one
	// has a track per coordinator, worker window, pool thread and LP.
	var exec, dwell uint64
	for i, co := range cos {
		snap := co.Snapshot()
		if snap.Windows != cs[i].Windows || snap.WindowsSkipped != cs[i].WindowsSkipped {
			t.Fatalf("observer %d saw %d + %d windows, its coordinator %d + %d", i+1, snap.Windows, snap.WindowsSkipped, cs[i].Windows, cs[i].WindowsSkipped)
		}
		exec += snap.Exec.Count
		dwell += snap.Dwell.Count
		var buf bytes.Buffer
		if err := co.WriteMergedTrace(&buf); err != nil {
			t.Fatal(err)
		}
		_, tids, err := obs.ValidateChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("merged trace %d does not re-parse: %v", i+1, err)
		}
		pool := 0
		if threads > 1 {
			pool = threads
		}
		if want := 1 + len(c.WorkerStats)*(1+pool) + c.NLPs; i == len(cos)-1 && len(tids) != want {
			t.Fatalf("merged trace has %d tracks, want %d", len(tids), want)
		}
	}
	if n := executed(c); cos != nil && (exec != n || dwell != n) {
		t.Fatalf("exec/dwell histograms hold %d/%d samples, workers executed %d events", exec, dwell, n)
	}
}
