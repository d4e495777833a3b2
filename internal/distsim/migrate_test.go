package distsim

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/partition"
)

// The migration end-to-end suite: a skewed PHOLD federation (both hot
// LPs start on worker 0) runs with adaptive partitioning enabled. The
// policy must actually move an LP mid-run, and the finished counts
// must stay bit-identical to the static distributed run and to the
// single-process reference — under clean wire, chaos faults, rollback
// recovery across a migration, and checkpoint file resume into the
// migrated layout.

// rebalancing is the coordinator tune of the suite: the deterministic
// test policy — event-count weights (busy-ns is wall-clock noisy), the
// default hysteresis band — planning every two windows.
func rebalancing(c *Coordinator) {
	c.Rebalance = &partition.Greedy{UseEvents: true}
	c.RebalanceEvery = 2
}

// TestRebalanceBitIdentical is the core output-invariance property:
// the rebalanced run migrates at least one LP, yet its per-LP counts
// match both the static distributed run and the single-process
// reference bit for bit.
func TestRebalanceBitIdentical(t *testing.T) {
	static := mgScn.coordinator(nil)
	launch(t, static, mgScn.pair())
	wantCounts(t, "static distributed run", static, mgScn.reference())

	c := mgScn.coordinator(rebalancing)
	launch(t, c, mgScn.pair())
	if c.Migrations == 0 {
		t.Fatal("skewed run rebalanced nothing; the scenario no longer exercises migration")
	}
	wantCounts(t, "rebalanced run (against the static one)", c, static.PerLPCounts())
	// The final stats must reflect a live assignment that still
	// partitions the LP space (the exact layout depends on how the job
	// population drifted, so only the invariant is asserted).
	if len(c.WorkerStats[0].LPs)+len(c.WorkerStats[1].LPs) != c.NLPs {
		t.Fatalf("final LP sets %v + %v do not partition %d LPs", c.WorkerStats[0].LPs, c.WorkerStats[1].LPs, c.NLPs)
	}
}

// TestRebalanceUnderChaos injects resets and duplicates into both
// directions of the wire while the rebalancer is migrating LPs: the
// migration frames are sequenced like any other, so session resume
// replays them and the counts still match the reference.
func TestRebalanceUnderChaos(t *testing.T) {
	c := mgScn.coordinator(rebalancing)
	chaosLaunch(t, c, mgScn.pair(),
		&chaos.Config{Seed: 81, Reset: 0.03, Dup: 0.05},
		&chaos.Config{Seed: 82, Reset: 0.03, Dup: 0.05})
	if c.Migrations == 0 {
		t.Fatal("chaos run rebalanced nothing")
	}
	wantCounts(t, "chaos rebalanced run", c, mgScn.reference())
}

// TestRebalanceRecoveryAcrossMigration kills a worker well after the
// first migration: rollback restores the checkpointed (migrated)
// assignment on every worker — the replacement registers its static
// LP set and restore reconciles it — and the finished counts match
// the reference.
func TestRebalanceRecoveryAcrossMigration(t *testing.T) {
	c := mgScn.coordinator(func(c *Coordinator) {
		rebalancing(c)
		c.CheckpointEvery = 1
		c.MaxRecoveries = 1
	})
	mgScn.killAndRecover(t, c)
	if c.Migrations == 0 {
		t.Fatal("recovery run rebalanced nothing before the kill")
	}
	wantCounts(t, "recovered rebalanced run", c, mgScn.reference())
}

// TestRebalanceFileResumeAcrossMigration crashes the whole run after a
// migration, then resumes a fresh coordinator and fresh statically
// configured workers from the persisted checkpoint: the checkpoint
// recorded the migrated assignment, matchSeat seats the static
// workers anyway, and restore hands each one the LP set the layout
// says it should own.
func TestRebalanceFileResumeAcrossMigration(t *testing.T) {
	c1, c2 := mgScn.failThenResume(t, rebalancing)
	if c1.Migrations == 0 {
		t.Fatal("first attempt rebalanced nothing before the crash")
	}
	wantCounts(t, "resumed rebalanced run", c2, mgScn.reference())
}
