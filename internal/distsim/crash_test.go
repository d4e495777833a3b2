package distsim

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
)

// The coordinator crash-restart suite: Serve is killed at a scripted
// barrier (the crash hooks return errCrashHook right after or right
// before the journal append), a second coordinator restarts from the
// same journal on the same listener, re-adopts the parked workers, and
// the finished run must be bit-identical to one that was never
// interrupted — across the dense, sparse skip-idle, chaos-faulted, and
// post-migration layouts. The fallback ladder (re-adopt -> rollback ->
// fail) and the worker park budget get their own scenarios.

// crashBudgets configures a worker for the crash suite: a single short
// resume attempt per reconnect cycle, so the park loop engages almost
// immediately after the coordinator dies, and a park budget generous
// enough to ride out any restart delay the tests schedule.
func crashBudgets(w *Worker) *Worker {
	w.ConnectRetries = 1
	w.ConnectBackoff = 5 * time.Millisecond
	w.HandshakeTimeout = 200 * time.Millisecond
	w.MaxPark = 2000
	return w
}

// crashRestart drives the two-phase harness. Two coordinators share the
// scenario, tune, a 10 s deadline unless tune set one, and one journal;
// arm sets the first one's crash hook. The workers launch against the
// listener (wrap, as in Loopback, may put an injector on it), c1 serves
// until its hook fires, and — after an optional outage — c2 restarts on
// the same listener: the workers keep dialing the same address, exactly
// as they would a restarted process. Worker errors fail the test, so a
// scenario only passes when parking carried every worker across the
// outage.
func (s scenario) crashRestart(t *testing.T, tune, arm func(*Coordinator), workers []*Worker, outage time.Duration, wrap func(net.Listener) net.Listener) (c1, c2 *Coordinator) {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "coord.journal")
	ln, addr := listen(t)
	if wrap != nil {
		ln = wrap(ln)
	}
	mk := func() *Coordinator {
		c := s.coordinator(tune)
		if c.Timeout == 0 {
			c.Timeout = 10 * time.Second
		}
		c.JournalPath = journal
		return c
	}
	c1, c2 = mk(), mk()
	arm(c1)
	errs := make(chan error, len(workers))
	for _, w := range workers {
		go func() { errs <- w.Run(addr) }()
	}
	if err := c1.Serve(ln, len(workers)); !errors.Is(err, errCrashHook) {
		t.Fatalf("first Serve = %v, want crash hook", err)
	}
	time.Sleep(outage)
	if err := c2.Serve(ln, len(workers)); err != nil {
		t.Fatalf("restarted Serve: %v", err)
	}
	for range workers {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("worker wedged after restart")
		}
	}
	return c1, c2
}

// afterBarrier and beforeBarrier arm the crash hooks.
func afterBarrier(n uint64) func(*Coordinator) {
	return func(c *Coordinator) { c.crashAfterBarrier = n }
}

func beforeBarrier(n uint64) func(*Coordinator) {
	return func(c *Coordinator) { c.crashBeforeBarrier = n }
}

// wantReadopted fails the test unless the restart re-adopted both
// workers in place, with no rollback.
func wantReadopted(t *testing.T, c *Coordinator) {
	t.Helper()
	if c.Readopted != 2 || c.Recoveries != 0 {
		t.Fatalf("readopted = %d, recoveries = %d, want 2, 0", c.Readopted, c.Recoveries)
	}
}

// TestCrashRestartDense is the core tentpole property, proven in its
// strongest form: the run has a journal but *no checkpoint file*, so
// rollback is impossible by construction — only a clean re-adoption at
// the journal tip can finish the run. The outage is long enough that
// every worker exhausts its normal reconnect budget and parks, so this
// also pins the park -> re-adopt path end to end.
func TestCrashRestartDense(t *testing.T) {
	want, wantWindows := referenceRun(t)
	_, c2 := rtScn.crashRestart(t, nil, afterBarrier(3), rtScn.pair(crashBudgets), 500*time.Millisecond, nil)
	wantCounts(t, "restarted run", c2, want)
	// Zero rolled-back windows: the restart resumes at the crash barrier,
	// so the total executed-window count matches the uninterrupted run.
	if lattice(c2) != wantWindows {
		t.Fatalf("windows = %d, want %d", lattice(c2), wantWindows)
	}
	wantReadopted(t, c2)
}

// TestCrashRestartBeforeBarrier kills the coordinator after the
// workers executed a window but before its journal record became
// durable: the restarted coordinator's tip trails the cluster by one
// window, so it re-sends that window and the workers must answer from
// their stashed done frames without touching their engines.
func TestCrashRestartBeforeBarrier(t *testing.T) {
	want, wantWindows := referenceRun(t)
	_, c2 := rtScn.crashRestart(t, nil, beforeBarrier(4), rtScn.pair(crashBudgets), 0, nil)
	wantCounts(t, "done-replay run", c2, want)
	if lattice(c2) != wantWindows {
		t.Fatalf("windows = %d, want %d", lattice(c2), wantWindows)
	}
	wantReadopted(t, c2)
}

// TestCrashRestartSparseSkip crashes the coordinator of a sparse run
// between skipped gaps: the journal tip records the pre-gap barrier, and the
// restart — which cannot know the piggybacked next-event times the
// crash destroyed — re-executes the gap's empty windows instead of
// skipping them. Empty windows execute nothing, so the counts stay
// bit-identical to the single-process reference.
func TestCrashRestartSparseSkip(t *testing.T) {
	_, c2 := skScn.crashRestart(t, nil, afterBarrier(2), skScn.pair(crashBudgets), 0, nil)
	wantCounts(t, "crash-restart skip run", c2, skScn.reference())
	if lattice(c2) != skScn.windows() {
		t.Fatalf("restarted run executed %d + skipped %d != lattice %d", c2.Windows, c2.WindowsSkipped, skScn.windows())
	}
	wantReadopted(t, c2)
}

// TestCrashRestartUnderChaos combines the coordinator crash with a
// faulty network on every wire: drops, duplicates, and corruption keep
// forcing session resumes before the crash and keep attacking the
// re-adoption handshake after it. The layered ladder — integrity
// checks, resume, journal restart — must still deliver bit-identical
// counts.
func TestCrashRestartUnderChaos(t *testing.T) {
	want, _ := referenceRun(t)
	workers := rtScn.pair(crashBudgets)
	faults := chaos.Config{Seed: 911, Drop: 0.02, Dup: 0.05, Corrupt: 0.02}
	// One injector wraps the listener across both Serve calls: the
	// restarted coordinator inherits the same hostile network.
	wrap := func(ln net.Listener) net.Listener {
		for i, w := range workers {
			w.ConnectRetries = 3 // chaos eats handshakes; one attempt per cycle is too tight
			cfg := faults
			cfg.Seed = 912 + uint64(i)*1000003
			w.Dial = chaos.New(cfg).Dial(ln.Addr().String())
		}
		return chaos.New(faults).Listener(ln)
	}
	_, c2 := rtScn.crashRestart(t, chaosBudgets, afterBarrier(3), workers, 0, wrap)
	wantCounts(t, "chaos crash-restart run", c2, want)
	wantReadopted(t, c2)
}

// TestCrashRestartAfterMigration crashes the coordinator after the
// rebalancer has migrated LPs away from the workers' static
// registration: the journal's migration records reproduce the moved
// assignment, the surviving workers present their migrated LP sets in
// the re-adoption handshake, and the restart resumes the migrated
// layout with zero rollback.
func TestCrashRestartAfterMigration(t *testing.T) {
	c1, c2 := mgScn.crashRestart(t, rebalancing, afterBarrier(6), mgScn.pair(crashBudgets), 0, nil)
	if c1.Migrations == 0 {
		t.Fatal("no migration before the crash; the scenario no longer exercises the migrated layout")
	}
	wantCounts(t, "post-migration crash-restart run", c2, mgScn.reference())
	wantReadopted(t, c2)
	if len(c2.WorkerStats[0].LPs)+len(c2.WorkerStats[1].LPs) != c2.NLPs {
		t.Fatalf("final LP sets %v + %v do not partition %d LPs",
			c2.WorkerStats[0].LPs, c2.WorkerStats[1].LPs, c2.NLPs)
	}
}

// TestCrashRestartFallbackRollback exercises the middle rung of the
// restart ladder: one worker dies during the coordinator outage, so a
// fresh replacement registers during re-adoption, its state cannot be
// trusted at the journal tip, and the whole federation rolls back to
// the journaled checkpoint ref instead. The survivor is still
// re-adopted (it carries the restore like any rollback), and the
// finished counts match the uninterrupted run.
func TestCrashRestartFallbackRollback(t *testing.T) {
	want, _ := referenceRun(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "coord.journal")
	ckpt := filepath.Join(dir, "cluster.ckpt")

	ln, addr := listen(t)

	c1 := rtScn.coordinator(nil)
	c1.Timeout = 10 * time.Second
	c1.CheckpointPath = ckpt
	c1.CheckpointEvery = 1
	c1.JournalPath = journal
	c1.crashAfterBarrier = 3

	// Worker A survives the outage parked; worker B gives up after one
	// short resume attempt (parking disabled), like a process whose own
	// host rebooted with the coordinator's.
	wA := crashBudgets(rtScn.worker(false, false))
	wB := rtScn.worker(true, false)
	wB.ConnectRetries = -1
	wB.ConnectBackoff = 5 * time.Millisecond
	wB.HandshakeTimeout = 200 * time.Millisecond
	wB.MaxPark = -1

	aErr := make(chan error, 1)
	bErr := make(chan error, 1)
	go func() { aErr <- wA.Run(addr) }()
	go func() { bErr <- wB.Run(addr) }()
	if err := c1.Serve(ln, 2); !errors.Is(err, errCrashHook) {
		t.Fatalf("first Serve = %v, want crash hook", err)
	}
	select {
	case err := <-bErr:
		if err == nil {
			t.Fatal("worker B exited cleanly during the outage")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker B never gave up")
	}

	// The replacement registers with worker B's static LP set; the
	// restarted coordinator must fall back to rollback.
	wB2 := crashBudgets(rtScn.worker(true, false))
	go func() { bErr <- wB2.Run(addr) }()
	c2 := rtScn.coordinator(nil)
	c2.Timeout = 10 * time.Second
	c2.CheckpointPath = ckpt
	c2.CheckpointEvery = 1
	c2.JournalPath = journal
	if err := c2.Serve(ln, 2); err != nil {
		t.Fatalf("restarted Serve: %v", err)
	}
	for _, ch := range []chan error{aErr, bErr} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("worker wedged after restart")
		}
	}

	wantCounts(t, "fallback-rollback run", c2, want)
	if c2.Readopted != 1 {
		t.Fatalf("readopted = %d, want 1 (only the survivor)", c2.Readopted)
	}
}

// TestCrashRestartRefusesForeignCheckpoint swaps the checkpoint file
// under a crashed coordinator: a restart must refuse, with a typed
// error and before it touches a worker, a cut older than the last one
// the journal saw made durable, and one past the journal's tip. With
// the real file back the same parked workers are re-adopted and the run
// finishes bit-identical.
func TestCrashRestartRefusesForeignCheckpoint(t *testing.T) {
	want, wantWindows := referenceRun(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "coord.journal")
	ckpt := filepath.Join(dir, "cluster.ckpt")

	ln, addr := listen(t)
	coordinator := func() *Coordinator {
		c := rtScn.coordinator(nil)
		c.Timeout = 10 * time.Second
		c.CheckpointPath = ckpt
		c.CheckpointEvery = 1
		c.JournalPath = journal
		return c
	}

	workers := []*Worker{crashBudgets(rtScn.worker(false, false)), crashBudgets(rtScn.worker(true, false))}
	errs := make(chan error, len(workers))
	for _, w := range workers {
		go func() { errs <- w.Run(addr) }()
	}
	// The hook fires once barrier 4 is journaled, before its checkpoint:
	// the file and the journal's ref are at barrier 3, the tip at 4.
	c1 := coordinator()
	c1.crashAfterBarrier = 4
	if err := c1.Serve(ln, 2); !errors.Is(err, errCrashHook) {
		t.Fatalf("first Serve = %v, want crash hook", err)
	}
	real, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, windows := range []uint64{2, 5} {
		at, ck, err := decodeClusterCheckpoint(real)
		if err != nil {
			t.Fatal(err)
		}
		if at.windows != 3 {
			t.Fatalf("checkpoint on disk is at barrier %d, want 3", at.windows)
		}
		at.windows = windows
		ck.cut = at.cut()
		if err := ck.save(ckpt, at); err != nil {
			t.Fatal(err)
		}
		c := coordinator()
		if err := c.Serve(ln, 2); !errors.Is(err, errCheckpointMismatch) {
			t.Fatalf("restart over a checkpoint at barrier %d = %v, want errCheckpointMismatch", windows, err)
		}
		if c.Readopted != 0 {
			t.Fatalf("refused restart re-adopted %d workers first", c.Readopted)
		}
	}
	if err := os.WriteFile(ckpt, real, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := coordinator()
	if err := c2.Serve(ln, 2); err != nil {
		t.Fatalf("restart over the real checkpoint: %v", err)
	}
	for range workers {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("worker wedged after restart")
		}
	}
	wantCounts(t, "restarted run", c2, want)
	if lattice(c2) != wantWindows || c2.Readopted != 2 || c2.Recoveries != 0 {
		t.Fatalf("windows %d (want %d), readopted %d, recoveries %d", lattice(c2), wantWindows, c2.Readopted, c2.Recoveries)
	}
}

// TestCrashRestartJournalRequiresRollbackWithoutCheckpoint pins the
// bottom of the ladder: a restart that needs a rollback (a fresh
// worker registered) but has no checkpoint file fails with a typed
// error instead of guessing at state.
func TestCrashRestartJournalRequiresRollbackWithoutCheckpoint(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "coord.journal")

	ln, addr := listen(t)

	c1 := rtScn.coordinator(nil)
	c1.Timeout = 10 * time.Second
	c1.JournalPath = journal
	c1.crashAfterBarrier = 2

	wA := crashBudgets(rtScn.worker(false, false))
	wB := rtScn.worker(true, false)
	wB.ConnectRetries = -1
	wB.HandshakeTimeout = 100 * time.Millisecond
	wB.MaxPark = -1
	go func() { _ = wA.Run(addr) }() // fails with the aborted restart; ignored
	bErr := make(chan error, 1)
	go func() { bErr <- wB.Run(addr) }()
	if err := c1.Serve(ln, 2); !errors.Is(err, errCrashHook) {
		t.Fatalf("first Serve = %v, want crash hook", err)
	}
	select {
	case err := <-bErr:
		if err == nil {
			t.Fatal("worker B exited cleanly during the outage")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker B never gave up")
	}

	go func() { _ = crashBudgets(rtScn.worker(true, false)).Run(addr) }() // replacement; run fails, ignored
	c2 := rtScn.coordinator(nil)
	c2.Timeout = 10 * time.Second
	c2.JournalPath = journal
	err := c2.Serve(ln, 2)
	if err == nil {
		t.Fatal("restart succeeded despite needing a rollback with no checkpoint")
	}
	if errors.Is(err, errCrashHook) {
		t.Fatalf("restart failed with the crash hook: %v", err)
	}
}

// TestWorkerParkGiveUp pins the bounded-park satellite: a worker whose
// coordinator dies and never comes back burns its park budget, returns
// a typed ErrCoordinatorLost, and still flushes its final local stats.
func TestWorkerParkGiveUp(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "coord.journal")

	ln, addr := listen(t)

	c := NewCoordinator(2, 1.0, 50, 7)
	c.Timeout = 10 * time.Second
	c.JournalPath = journal
	c.crashAfterBarrier = 2

	w := NewWorker(0, 1)
	InstallPHOLD(w, 2, 4, 0.5, 3)
	w.ConnectRetries = 1
	w.ConnectBackoff = 2 * time.Millisecond
	w.HandshakeTimeout = 50 * time.Millisecond
	w.MaxPark = 3

	wErr := make(chan error, 1)
	go func() { wErr <- w.Run(addr) }()
	if err := c.Serve(ln, 1); !errors.Is(err, errCrashHook) {
		t.Fatalf("Serve = %v, want crash hook", err)
	}
	select {
	case err := <-wErr:
		if !errors.Is(err, ErrCoordinatorLost) {
			t.Fatalf("worker error = %v, want ErrCoordinatorLost", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker never gave up parking")
	}
	stats := w.Stats()
	if !stats.Incomplete {
		t.Fatal("final stats not marked incomplete")
	}
	if stats.EventsExecuted == 0 {
		t.Fatal("abandoned worker flushed no executed events")
	}
}

// TestPartitionShorterThanTimeout pins the heartbeat-during-partition
// interplay from the safe side: a two-way blackhole shorter than the
// coordinator's per-frame deadline must never escalate to rollback
// recovery — the silence stays under the timeout, heartbeats resume
// when the partition lifts, and any frame the blackhole ate heals by
// cheap session resume. Rollback is armed, so a false escalation
// would be visible in Recoveries.
func TestPartitionShorterThanTimeout(t *testing.T) {
	want, _ := referenceRun(t)
	part := chaos.Config{Seed: 7001, Delay: 2 * time.Millisecond,
		PartitionStart: 60 * time.Millisecond, PartitionDur: 150 * time.Millisecond}
	dialers := part
	dialers.Seed += 1000003
	c := rtScn.coordinator(func(c *Coordinator) {
		chaosBudgets(c)
		c.Timeout = 2 * time.Second // partition << timeout: the deadline must never fire
		c.CheckpointEvery = 1
		c.MaxRecoveries = 2
	})
	chaosLaunch(t, c, rtScn.pair(), &part, &dialers)
	if c.Recoveries != 0 {
		t.Fatalf("sub-timeout partition escalated to %d rollback recoveries", c.Recoveries)
	}
	wantCounts(t, "short-partition run", c, want)
}

// TestPartitionLongerThanTimeoutRecovers is the flip side: a partition
// that outlives the deadline must trigger the failure machinery. The
// partitioned worker's writes stay blackholed for good, its heartbeats
// stop arriving, the deadline fires, resume fails (the hellos vanish
// too), the worker gives up, and a fresh replacement carries the slot
// through rollback recovery — Recoveries must advance, and the counts
// must still match the uninterrupted run.
func TestPartitionLongerThanTimeoutRecovers(t *testing.T) {
	want, wantWindows := referenceRun(t)

	ln, addr := listen(t)

	c := rtScn.coordinator(nil)
	c.Timeout = 300 * time.Millisecond
	c.ReconnectWait = 500 * time.Millisecond
	c.RecoveryWait = 15 * time.Second
	c.CheckpointEvery = 1
	c.MaxRecoveries = 2

	wA := rtScn.worker(false, false)
	wA.HandshakeTimeout = 2 * time.Second
	wA.ConnectRetries = 100
	wA.ConnectBackoff = 10 * time.Millisecond

	// Worker B's outbound wire partitions mid-run and never heals: the
	// deterministic "partition longer than the timeout" worker. The
	// fixed per-message delay stretches its side of the run so the
	// partition reliably lands after the handshake but before the
	// horizon. Its resume attempts are blackholed with everything else,
	// so it gives up quickly (parking disabled) and the test relaunches
	// it fresh.
	wB := rtScn.worker(true, false)
	wB.ConnectRetries = 2
	wB.ConnectBackoff = 10 * time.Millisecond
	wB.HandshakeTimeout = 200 * time.Millisecond
	wB.MaxPark = -1
	inj := chaos.New(chaos.Config{Seed: 7002, Delay: 5 * time.Millisecond,
		PartitionStart: 40 * time.Millisecond, PartitionDur: time.Hour})
	wB.Dial = inj.Dial(addr)

	errs := make(chan error, 2)
	bDead := make(chan struct{})
	go func() { errs <- wA.Run(addr) }()
	go func() {
		if err := wB.Run(addr); err == nil {
			t.Error("partitioned worker exited cleanly")
		}
		close(bDead)
	}()
	go func() {
		// The replacement dials clean (no injector), like a worker
		// relaunched on a healthy host.
		<-bDead
		wB2 := rtScn.worker(true, false)
		wB2.HandshakeTimeout = 2 * time.Second
		wB2.ConnectRetries = 100
		wB2.ConnectBackoff = 10 * time.Millisecond
		errs <- wB2.Run(addr)
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- c.Serve(ln, 2) }()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("long-partition run wedged")
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("worker wedged")
		}
	}

	if c.Recoveries == 0 {
		t.Fatal("over-timeout partition never triggered rollback recovery")
	}
	wantCounts(t, "long-partition run", c, want)
	if lattice(c) != wantWindows {
		t.Fatalf("windows = %d, want %d", lattice(c), wantWindows)
	}
}
