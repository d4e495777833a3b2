package distsim

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/parsim"
)

// The chaos end-to-end suite: a PHOLD federation distributed over two
// workers, with a deterministic fault injector attacking one or both
// directions of the wire, must finish with per-LP event counts
// bit-identical to the fault-free single-process run. Every fault
// class the injector knows is exercised; the failures are absorbed by
// the protocol's integrity checking, request numbering and
// re-adoption — never by the model. The runs are on the
// scripted clock, except the injector's delays, which are wall-clock
// sleeps and run over loopback TCP.

// ceRun executes the distributed PHOLD run with optional injectors on
// the coordinator side (wrapping the listener, so coordinator->worker
// frames are attacked) and the worker side (wrapping each worker's
// dialed connections). It fails the test unless the run completes and
// matches the reference bit for bit, and returns the coordinator for
// extra assertions.
func ceRun(t *testing.T, coordCfg, workerCfg *chaos.Config) *Coordinator {
	t.Helper()
	c := ceScn.coordinator(nil)
	chaosLaunch(t, c, ceScn.pair(), coordCfg, workerCfg)
	wantCounts(t, "chaos run (against fault-free)", c, ceScn.reference())
	return c
}

// TestChaosCleanBaseline is the suite's control: the same run with no
// injector matches the reference and never reconnects.
func TestChaosCleanBaseline(t *testing.T) {
	t.Parallel()
	c := ceRun(t, nil, nil)
	if c.Reconnects != 0 {
		t.Fatalf("clean run reconnected %d times", c.Reconnects)
	}
}

func TestChaosDrop(t *testing.T) {
	t.Parallel()
	ceRun(t,
		&chaos.Config{Seed: 11, Drop: 0.05},
		&chaos.Config{Seed: 12, Drop: 0.05})
}

func TestChaosDuplicate(t *testing.T) {
	t.Parallel()
	ceRun(t,
		&chaos.Config{Seed: 21, Dup: 0.15},
		&chaos.Config{Seed: 22, Dup: 0.15})
}

func TestChaosReorder(t *testing.T) {
	t.Parallel()
	// Coordinator-side reorder stalls a whole window per hit (the held
	// frame only flushes on the next same-connection write), so keep
	// its rate lower than the worker side, where heartbeats flush
	// holds within a heartbeat interval.
	ceRun(t,
		&chaos.Config{Seed: 31, Reorder: 0.03},
		&chaos.Config{Seed: 32, Reorder: 0.1})
}

func TestChaosCorrupt(t *testing.T) {
	t.Parallel()
	ceRun(t,
		&chaos.Config{Seed: 41, Corrupt: 0.04},
		&chaos.Config{Seed: 42, Corrupt: 0.04})
}

func TestChaosDelayJitter(t *testing.T) {
	t.Parallel()
	c, workers := ceScn.coordinator(nil), ceScn.pair()
	err := Loopback(c, workers, chaosWrap(workers,
		&chaos.Config{Seed: 51, Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond},
		&chaos.Config{Seed: 52, Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond}, tcpDial))
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, "chaos run (against fault-free)", c, ceScn.reference())
}

func TestChaosReset(t *testing.T) {
	t.Parallel()
	c := ceRun(t,
		&chaos.Config{Seed: 61, Reset: 0.08},
		&chaos.Config{Seed: 62, Reset: 0.08})
	if c.Reconnects == 0 {
		t.Fatal("reset run never re-adopted a worker")
	}
}

func TestChaosScriptedResets(t *testing.T) {
	t.Parallel()
	// Two forced resets at fixed coordinator message indices: the
	// deterministic "network breaks during window N" scenario.
	c := ceRun(t, &chaos.Config{Seed: 71, ResetAt: []uint64{9, 23}}, nil)
	if c.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want >= 2 (two scripted resets)", c.Reconnects)
	}
}

func TestChaosPartitionWithReconnect(t *testing.T) {
	t.Parallel()
	// A two-way blackhole landing mid-run: from its 10th frame on, the
	// coordinator's host is off the network, timeouts fire, and the
	// federation heals by re-adoption once the partition lifts. It
	// outlasts the coordinator's timeout, so the loss is detected *during*
	// the partition, not after it, and lifts inside the resume window that
	// opens then (env.go's table): 3.5 s against a 3 s Timeout.
	c := ceScn.coordinator(func(c *Coordinator) { c.Timeout = 3 * time.Second })
	sm := newSim(t)
	sm.fault = cutAt(coord, 10, 3500*time.Millisecond)
	err := sm.loopback(c, ceScn.pair(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, "partition run (against fault-free)", c, ceScn.reference())
	if c.Reconnects == 0 {
		t.Fatal("partition run never re-adopted a worker")
	}
}

func TestChaosEverythingAtOnce(t *testing.T) {
	t.Parallel()
	// The kitchen sink at low intensity: every probabilistic fault
	// class active simultaneously.
	ceRun(t,
		&chaos.Config{Seed: 91, Drop: 0.02, Dup: 0.05, Reorder: 0.02, Corrupt: 0.02, Reset: 0.01, Jitter: time.Millisecond},
		&chaos.Config{Seed: 92, Drop: 0.02, Dup: 0.05, Reorder: 0.02, Corrupt: 0.02, Reset: 0.01, Jitter: time.Millisecond})
}

// TestChaosFourWorkerConcurrentHeal pins the many-worker healing rule:
// while one slot heals, a register from another worker whose config
// died on the wire redoes that seat's config instead of being parked.
// With four workers under bidirectional drop, concurrent startup
// failures are near-certain; the run must still finish bit-identical.
func TestChaosFourWorkerConcurrentHeal(t *testing.T) {
	t.Parallel()
	const lps, horizon = 8, 60.0
	model := ceScn.model
	model.TotalLPs = lps
	c := NewCoordinator(lps, 1.0, horizon, ceScn.seed)
	workers := make([]*Worker, 4)
	for i := range workers {
		workers[i] = NewWorker(2*i, 2*i+1)
		InstallPHOLDModel(workers[i], &model)
	}
	chaosLaunch(t, c, workers, &chaos.Config{Seed: 7, Drop: 0.03}, &chaos.Config{Seed: 7 + 1000003, Drop: 0.03})

	ref := parsim.NewPHOLDModel(model, 1, 1.0, ceScn.seed)
	ref.Run(horizon)
	wantCounts(t, "four-worker chaos run (against fault-free)", c, ref.PerLPEvents())
}

// TestLostFrameSweep loses frames on the scripted network in the skewed
// layout checkpointed every window: each sequenced kind's first frame at
// or after barrier 3, restore and restored in the kill drill. Each heals
// by re-adoption and a re-sent request, which a worker that answered it
// answers from its kept reply (no LP is extracted or adopted twice), and
// finishes bit-identical, executing what the unfaulted run did, with
// only its drill's recoveries and full stats.
func TestLostFrameSweep(t *testing.T) {
	t.Parallel()
	tune := func(c *Coordinator) { rebalancing(c); c.CheckpointEvery = 1 }
	base := mgScn.coordinator(tune)
	launch(t, base, mgScn.pair())
	type row struct {
		lose       map[frameKind]int // how many to lose, per kind
		pick       func(wired) bool  // of the frames it picks
		kill       bool              // in the kill drill
		reconnects int               // exactly, when set
	}
	all := func(wired) bool { return true }
	rows := map[string]row{
		"restore":  {map[frameKind]int{frameRestore: 1}, all, true, 0},
		"restored": {map[frameKind]int{frameRestored: 1}, all, true, 0},
		// Worker B's stats, then the answers to its first two hellos: the
		// coordinator waits for the stats, so B keeps its whole budget.
		"stats-then-hellos": {map[frameKind]int{frameStats: 1, frameCoordHello: 2},
			func(f wired) bool { return f.kind != frameStats || f.from == 1 }, false, 0},
		// A seat healed while the other waits is not torn down again.
		"both-dones": {map[frameKind]int{frameDone: 2}, func(f wired) bool { return f.seq == 3 }, false, 2},
	}
	for _, k := range []frameKind{frameWindow, frameDone, frameCheckpoint, frameSnapshot, frameMigrateOut,
		frameLPState, frameMigrateIn, frameMigrated, frameStop, frameStats} {
		rows[k.String()] = row{map[frameKind]int{k: 1}, func(f wired) bool { return f.seq >= 3 }, false, 0}
	}
	for name, r := range rows {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			hook := func(f wired) fate {
				if r.lose[f.kind] > 0 && r.pick(f) {
					r.lose[f.kind]--
					return fate{act: drop}
				}
				return fate{}
			}
			c, recoveries := mgScn.coordinator(tune), 0
			if r.kill {
				c.MaxRecoveries, recoveries = 1, 1
				mgScn.killAndRecover(t, c, hook)
			} else {
				sm := newSim(t)
				sm.fault = hook
				if err := sm.loopback(c, mgScn.pair(), nil); err != nil {
					t.Fatal(err)
				}
			}
			wantCounts(t, "run", c, mgScn.reference())
			for k, n := range r.lose {
				if n > 0 {
					t.Fatalf("%d %s frames left to lose", n, k)
				}
			}
			if executed(c) != executed(base) || c.Recoveries != recoveries || c.StatsIncomplete ||
				c.Reconnects < 1 || r.reconnects > 0 && c.Reconnects != r.reconnects {
				t.Fatalf("executed %d events (unfaulted %d), %d recoveries (want %d), stats incomplete %v, %d reconnects (want %d, or any when 0)",
					executed(c), executed(base), c.Recoveries, recoveries, c.StatsIncomplete, c.Reconnects, r.reconnects)
			}
		})
	}
}
