package distsim

import (
	"testing"
	"time"

	"repro/internal/chaos"
)

// The window-skipping suite runs PHOLD in the sparse-traffic regime —
// mean event spacing of 48 lookaheads (skScn), so the vast majority of
// lookahead windows contain no event anywhere in the federation — and
// pins the skipping contract: the run is bit-identical to the
// single-process reference, which executes every window of the lattice,
// it skips the windows that one executes emptily, and the property
// survives chaos faults and a checkpoint→resume across a skipped gap.

// skRun launches a sparse distributed run and returns the coordinator.
func skRun(t *testing.T) *Coordinator {
	t.Helper()
	c := skScn.coordinator(nil)
	launch(t, c, skScn.pair())
	return c
}

// TestSparseSkipBitIdentical is the core skipping property: on sparse
// traffic the distributed run skips most of the window lattice yet
// produces per-LP counts bit-identical to the single-process parsim
// reference, and the executed and skipped windows sum to exactly the
// fixed lattice.
func TestSparseSkipBitIdentical(t *testing.T) {
	c := skRun(t)
	wantCounts(t, "sparse run", c, skScn.reference())
	if lattice(c) != skScn.windows() {
		t.Fatalf("executed %d + skipped %d != lattice %d", c.Windows, c.WindowsSkipped, skScn.windows())
	}
	if c.Windows >= skScn.windows()/2 {
		t.Fatalf("sparse run executed %d of %d windows — skipping barely engaged", c.Windows, skScn.windows())
	}
}

// TestSparseSkipUnderChaos runs the sparse federation
// against a faulty network (drops, duplicates, resets on both
// directions of the wire): skipping must compose with integrity
// checking and session resume without costing bit-identity.
func TestSparseSkipUnderChaos(t *testing.T) {
	t.Parallel()
	c := skScn.coordinator(chaosBudgets)
	chaosLaunch(t, c, skScn.pair(),
		&chaos.Config{Seed: 101, Drop: 0.03, Dup: 0.1, Reset: 0.02},
		&chaos.Config{Seed: 201, Drop: 0.03, Dup: 0.1, Reset: 0.02})
	wantCounts(t, "chaos skip run", c, skScn.reference())
	if c.WindowsSkipped == 0 || lattice(c) != skScn.windows() {
		t.Fatalf("chaos skip run executed %d + skipped %d, lattice %d", c.Windows, c.WindowsSkipped, skScn.windows())
	}
}

// TestSkipCheckpointResumeAcrossGap kills a worker mid-run with
// recovery disabled, leaving the persisted cluster checkpoint at the
// last executed barrier — which, in the sparse regime, sits right
// before skipped gaps. A second coordinator resumes from the file,
// jumps the gaps again, and finishes with counts identical to the
// uninterrupted run.
func TestSkipCheckpointResumeAcrossGap(t *testing.T) {
	c1, c2 := skScn.failThenResume(t, nil)
	if c1.WindowsSkipped == 0 {
		t.Fatal("first attempt skipped no windows before the crash")
	}
	wantCounts(t, "resumed skip run", c2, skScn.reference())
	if c2.WindowsSkipped == 0 {
		t.Fatal("resumed run skipped no windows after the gap")
	}
	// The cut carries the skip counter, so the resumed run still accounts
	// for every window of the lattice exactly once.
	if lattice(c2) != skScn.windows() {
		t.Fatalf("resumed run executed %d + skipped %d != lattice %d", c2.Windows, c2.WindowsSkipped, skScn.windows())
	}
}

// TestSkipRecoveryKeepsLattice kills a worker of a skipping run and
// recovers it in-run: the rollback reinstates the skip counter with the
// rest of the cut, so windows skipped between the checkpoint and the
// crash are not counted a second time when the run passes them again.
func TestSkipRecoveryKeepsLattice(t *testing.T) {
	c := skScn.coordinator(func(c *Coordinator) {
		c.Timeout = 10 * time.Second
		c.CheckpointEvery = 4 // several skipped stretches between a cut and the crash
		c.MaxRecoveries = 1
	})
	skScn.killAndRecover(t, c)
	wantCounts(t, "recovered skip run", c, skScn.reference())
	if lattice(c) != skScn.windows() {
		t.Fatalf("recovered run executed %d + skipped %d != lattice %d", c.Windows, c.WindowsSkipped, skScn.windows())
	}
}
