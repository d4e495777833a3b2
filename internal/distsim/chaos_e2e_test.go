package distsim

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/parsim"
)

// The chaos end-to-end suite: a PHOLD federation distributed over two
// TCP workers, with a deterministic fault injector attacking one or
// both directions of the wire, must finish with per-LP event counts
// bit-identical to the fault-free single-process run. Every fault
// class the injector knows is exercised; the failures are absorbed by
// the protocol's integrity checking, duplicate suppression, and
// session-resume reconnects — never by the model.

// ceRun executes the distributed PHOLD run with optional injectors on
// the coordinator side (wrapping the listener, so coordinator->worker
// frames are attacked) and the worker side (wrapping each worker's
// dialed connections). It fails the test unless the run completes and
// matches the reference bit for bit, and returns the coordinator for
// extra assertions.
func ceRun(t *testing.T, coordCfg, workerCfg *chaos.Config) *Coordinator {
	t.Helper()
	c := ceScn.coordinator(chaosBudgets)
	chaosLaunch(t, c, ceScn.pair(), coordCfg, workerCfg)
	wantCounts(t, "chaos run (against fault-free)", c, ceScn.reference())
	return c
}

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
	ceRun(t,
		&chaos.Config{Seed: 51, Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond},
		&chaos.Config{Seed: 52, Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond})
}

func TestChaosReset(t *testing.T) {
	t.Parallel()
	c := ceRun(t,
		&chaos.Config{Seed: 61, Reset: 0.08},
		&chaos.Config{Seed: 62, Reset: 0.08})
	if c.Reconnects == 0 {
		t.Fatal("reset run never exercised session resume")
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
	// A 700ms two-way blackhole landing mid-run: both directions drop
	// everything, timeouts fire, and the federation heals by session
	// resume once the partition lifts. The per-message delay stretches
	// the run well past the partition start so the blackhole is
	// guaranteed to land while windows are in flight, and the duration
	// exceeds the coordinator timeout so the loss is detected *during*
	// the partition, not after it.
	c := ceRun(t,
		&chaos.Config{Seed: 81, Delay: time.Millisecond, PartitionStart: 30 * time.Millisecond, PartitionDur: 700 * time.Millisecond},
		&chaos.Config{Seed: 82, Delay: time.Millisecond, PartitionStart: 30 * time.Millisecond, PartitionDur: 700 * time.Millisecond})
	if c.Reconnects == 0 {
		t.Fatal("partition run never exercised session resume")
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
// while one slot resumes, a register from another worker whose config
// handshake died on the wire must redo that slot's handshake instead
// of parking a redoable worker and aborting the heal. With four
// workers under bidirectional drop, concurrent startup failures are
// near-certain; the run must still finish bit-identical.
func TestChaosFourWorkerConcurrentHeal(t *testing.T) {
	t.Parallel()
	const lps, horizon = 8, 60.0
	model := ceScn.model
	model.TotalLPs = lps
	c := NewCoordinator(lps, 1.0, horizon, ceScn.seed)
	chaosBudgets(c)
	workers := make([]*Worker, 4)
	for i := range workers {
		workers[i] = NewWorker(2*i, 2*i+1)
		InstallPHOLDModel(workers[i], &model)
		workers[i].HandshakeTimeout = time.Second
	}
	chaosLaunch(t, c, workers, &chaos.Config{Seed: 7, Drop: 0.03}, &chaos.Config{Seed: 7 + 1000003, Drop: 0.03})

	ref := parsim.NewPHOLDModel(model, 1, 1.0, ceScn.seed)
	ref.Run(horizon)
	wantCounts(t, "four-worker chaos run (against fault-free)", c, ref.PerLPEvents())
}
