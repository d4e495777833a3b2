package distsim

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The coordinator crash-restart drills: the scripted network's fault
// hook kills the coordinator at a chosen frame (killPoint), a second
// coordinator restarts from the same journal on the same listener and
// re-adopts the parked workers. The plain restart and the restart ahead
// of a barrier's record, on every layout, thread count and
// observability setting and under chaos, are columns of TestFaultMatrix;
// this file holds the harness, the sweep over every barrier's two
// boundaries, and the drills that need more than the harness: the
// fallback ladder (re-adopt -> rollback -> fail), a foreign checkpoint,
// the worker park budget and partitions.

// killPoint is where a drill's fault hook kills the coordinator, and
// the barrier that leaves at the journal's tip.
type killPoint struct {
	hook func(wired) fate
	tip  uint64
}

// afterRecord kills the coordinator at its first frame past barrier n's
// journal record: the first sequenced frame it writes, once it has
// delivered window n, that is not window n (a checkpoint, a migration,
// the next window or the stop).
func afterRecord(n uint64) killPoint {
	fired := false
	return killPoint{tip: n, hook: func(f wired) fate {
		if fired || f.from != coord || !f.kind.sequenced() || f.seq < n || f.kind == frameWindow && f.seq == n {
			return fate{}
		}
		fired = true
		return fate{act: kill}
	}}
}

// ahead kills the coordinator once every one of its seats has been
// delivered window n and before any done frame of it is: at the first
// done frame of window n written after the fan-out, dropping those
// written before it. Every worker has executed window n, and the
// journal's tip is barrier n-1.
func ahead(n uint64, seats int) killPoint {
	sent := map[int]bool{}
	fired := false
	return killPoint{tip: n - 1, hook: func(f wired) fate {
		switch {
		case fired || f.seq != n:
		case f.from == coord && f.kind == frameWindow:
			sent[f.to] = true
		case f.kind == frameDone && len(sent) < seats:
			return fate{act: drop}
		case f.kind == frameDone:
			fired = true
			return fate{act: kill}
		}
		return fate{}
	}}
}

// killed fails unless the coordinator was killed and the journal's tip
// is at barrier tip.
func (l *simListener) killed(journal string, tip uint64) error {
	l.s.mu.Lock()
	down := l.down
	l.s.mu.Unlock()
	if !down {
		return errors.New("the coordinator was never killed")
	}
	st, err := loadJournal(journal)
	if err != nil {
		return err
	}
	if st.ctl.windows != tip {
		return fmt.Errorf("the kill left the journal's tip at barrier %d, want %d", st.ctl.windows, tip)
	}
	return nil
}

// crashRestart drives the two-phase harness. Two coordinators share the
// scenario, tune and one journal; the network's fault hook is at's,
// which kills the first. Worker i dials from host i (wrap, as in
// Loopback, may put an injector on the listener), c1 serves until the
// kill and — after an outage on the scripted clock — the script
// restarts the listener and c2 serves on it: the workers keep dialing
// the same address, exactly as they would a restarted process. The
// journal's tip must be where at says, and worker errors fail the test,
// so a scenario only passes when the workers rode out the outage.
func (s scenario) crashRestart(t *testing.T, tune func(*Coordinator), at killPoint, workers []*Worker, outage time.Duration, wrap func(net.Listener) net.Listener) (c1, c2 *Coordinator) {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "coord.journal")
	sm := newSim(t)
	sm.fault = at.hook
	sl := sm.listen()
	ln := net.Listener(sl)
	for i, w := range workers {
		w.Dial = sl.host(i)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	mk := func() *Coordinator {
		c := s.coordinator(tune)
		c.JournalPath = journal
		return c
	}
	c1, c2 = mk(), mk()
	sm.attach(c1, workers...)
	sm.attach(c2)
	err := sm.run(func() error {
		runs := make([]*result, len(workers))
		for i, w := range workers {
			runs[i] = sm.start(func() error { return w.Run("") })
		}
		_ = c1.Serve(ln, len(workers)) // killed: the journal shows where
		if err := sl.killed(journal, at.tip); err != nil {
			return err
		}
		sm.sleep(outage)
		sl.restart()
		if err := c2.Serve(ln, len(workers)); err != nil {
			return fmt.Errorf("restarted Serve: %w", err)
		}
		for _, r := range runs {
			if err := r.wait(); err != nil {
				return fmt.Errorf("worker: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c1, c2
}

// wantReadopted fails the test unless the restart re-adopted both
// workers in place, with no rollback.
func wantReadopted(t *testing.T, c *Coordinator) {
	t.Helper()
	if c.Readopted != 2 || c.Recoveries != 0 {
		t.Fatalf("readopted = %d, recoveries = %d, want 2, 0", c.Readopted, c.Recoveries)
	}
}

// TestCrashRestartSweep kills a checkpointed journal run at both
// boundaries of every barrier: just after the barrier's journal record,
// and just after its window fan-out, before the record. Each restart
// re-adopts both workers — after a fan-out kill each answers the
// re-sent window from its kept done frame — and finishes bit-identical
// without executing an event twice.
func TestCrashRestartSweep(t *testing.T) {
	want, base := rtScn.reference(), rtScn.coordinator(nil)
	launch(t, base, rtScn.pair())
	for n := uint64(1); n <= rtScn.windows(); n++ {
		for _, b := range []struct {
			name string
			at   killPoint
		}{{"record", afterRecord(n)}, {"fan-out", ahead(n, 2)}} {
			t.Run(fmt.Sprintf("barrier=%d/%s", n, b.name), func(t *testing.T) {
				ckpt := filepath.Join(t.TempDir(), "cluster.ckpt")
				_, c2 := rtScn.crashRestart(t, func(c *Coordinator) {
					c.CheckpointPath, c.CheckpointEvery = ckpt, 1
				}, b.at, rtScn.pair(), 0, nil)
				wantCounts(t, "restarted run", c2, want)
				wantReadopted(t, c2)
				if executed(c2) != executed(base) {
					t.Fatalf("executed %d events, the unfaulted run %d", executed(c2), executed(base))
				}
			})
		}
	}
}

// TestCrashRestartDuplicatedHandshake re-adopts the workers over a
// network that delivers every re-adoption frame twice: the
// coordinator's coord-hello and each worker's readopt arrive again once
// the handshake is over, and each side drops the copy as noise, as it
// does a duplicated hello or register.
func TestCrashRestartDuplicatedHandshake(t *testing.T) {
	at := afterRecord(3)
	killAt := at.hook
	at.hook = func(f wired) fate {
		if f.kind == frameReadopt || f.kind == frameCoordHello {
			return fate{act: dup}
		}
		return killAt(f)
	}
	_, c2 := rtScn.crashRestart(t, nil, at, rtScn.pair(), 0, nil)
	wantCounts(t, "restart over duplicated handshakes", c2, rtScn.reference())
	wantReadopted(t, c2)
}

// fallback kills a journaled rtScn run (checkpointed every window when
// ckpt is set) just after barrier 3's record. Worker A survives the
// outage parked; worker B gives up after one reconnect cycle (parking
// disabled), like a process whose own host rebooted with the
// coordinator's, and its replacement registers with B's static LP set
// as the coordinator restarts. It returns the restarted coordinator and
// its Serve's error; the workers' errors count only when that is nil.
func fallback(t *testing.T, ckpt bool) (*Coordinator, error) {
	t.Helper()
	dir := t.TempDir()
	journal := filepath.Join(dir, "coord.journal")
	sm := newSim(t)
	sm.fault = afterRecord(3).hook
	ln := sm.listen()
	coordinator := func() *Coordinator {
		c := rtScn.coordinator(nil)
		c.JournalPath = journal
		if ckpt {
			c.CheckpointPath, c.CheckpointEvery = filepath.Join(dir, "cluster.ckpt"), 1
		}
		return c
	}
	c1, c2 := coordinator(), coordinator()
	wA, wB, wB2 := rtScn.worker(false, false), rtScn.worker(true, false), rtScn.worker(true, false)
	wB.MaxPark = -1
	for _, w := range []*Worker{wA, wB, wB2} {
		w.Dial = ln.host(0)
	}
	sm.attach(c1, wA, wB, wB2)
	sm.attach(c2)
	var serr error
	err := sm.run(func() error {
		ra := sm.start(func() error { return wA.Run("") })
		rb := sm.start(func() error { return wB.Run("") })
		_ = c1.Serve(ln, 2) // killed: the journal shows where
		if err := ln.killed(journal, 3); err != nil {
			return err
		}
		if rb.wait() == nil {
			return errors.New("worker B exited cleanly during the outage")
		}
		ln.restart()
		rb2 := sm.start(func() error { return wB2.Run("") })
		if serr = c2.Serve(ln, 2); serr != nil {
			ln.Close() // the workers give up
			return nil
		}
		return errors.Join(ra.wait(), rb2.wait())
	})
	if err != nil {
		t.Fatal(err)
	}
	return c2, serr
}

// TestCrashRestartFallbackRollback exercises the middle rung of the
// restart ladder: a fresh replacement's state cannot be trusted at the
// journal tip, so the whole federation rolls back to the journaled
// checkpoint ref instead. The survivor is still re-adopted (it carries
// the restore like any rollback), and the finished counts match the
// uninterrupted run.
func TestCrashRestartFallbackRollback(t *testing.T) {
	c2, err := fallback(t, true)
	if err != nil {
		t.Fatalf("restarted Serve: %v", err)
	}
	wantCounts(t, "fallback-rollback run", c2, rtScn.reference())
	if c2.Readopted != 1 {
		t.Fatalf("readopted = %d, want 1 (only the survivor)", c2.Readopted)
	}
}

// TestCrashRestartJournalRequiresRollbackWithoutCheckpoint pins the
// bottom of the ladder: a restart that needs a rollback (a fresh
// worker registered) but has no checkpoint file fails with a typed
// error instead of guessing at state.
func TestCrashRestartJournalRequiresRollbackWithoutCheckpoint(t *testing.T) {
	if _, err := fallback(t, false); err == nil || !strings.Contains(err.Error(), "holds no checkpoint") {
		t.Fatalf("restart needing a rollback with no checkpoint = %v, want the missing checkpoint", err)
	}
}

// TestCrashRestartRefusesForeignCheckpoint swaps the checkpoint file
// under a killed and restarted run's journal: a restart must refuse,
// with a typed error and before it accepts a worker, a cut older than
// the last one the journal saw made durable, and one past the
// journal's tip.
func TestCrashRestartRefusesForeignCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "cluster.ckpt")
	tune := func(c *Coordinator) { c.CheckpointPath, c.CheckpointEvery = ckpt, 1 }
	_, c2 := rtScn.crashRestart(t, tune, afterRecord(4), rtScn.pair(), 0, nil)
	at, ck, err := loadClusterCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// The journal's tip is the last barrier, 12; the file and the
	// journal's ref are at 11, the last one before the horizon.
	if at.windows != 11 {
		t.Fatalf("checkpoint on disk is at barrier %d, want 11", at.windows)
	}
	ln := newSim(t).listen()
	ln.Close() // a refusal comes before any accept
	for _, windows := range []uint64{10, 13} {
		at.windows = windows
		ck.cut = at.cut()
		if err := ck.save(ckpt, at); err != nil {
			t.Fatal(err)
		}
		c := rtScn.coordinator(tune)
		c.JournalPath = c2.JournalPath
		if err := c.Serve(ln, 2); !errors.Is(err, errCheckpointMismatch) {
			t.Fatalf("restart over a checkpoint at barrier %d = %v, want errCheckpointMismatch", windows, err)
		}
	}
}

// TestWorkerParkGiveUp pins the bounded park: a worker whose
// coordinator dies and never comes back burns its park budget, returns
// a typed ErrCoordinatorLost, and still flushes its final local stats.
func TestWorkerParkGiveUp(t *testing.T) {
	sm := newSim(t)
	sm.fault = afterRecord(2).hook
	ln := sm.listen()
	c := NewCoordinator(2, 1.0, 50, 7)
	c.JournalPath = filepath.Join(t.TempDir(), "coord.journal")

	w := NewWorker(0, 1)
	InstallPHOLD(w, 2, 4, 0.5, 3)
	w.MaxPark = 3
	w.Dial = ln.host(0)
	sm.attach(c, w)
	var werr error
	err := sm.run(func() error {
		r := sm.start(func() error { return w.Run("") })
		_ = c.Serve(ln, 1) // killed: the journal shows where
		if err := ln.killed(c.JournalPath, 2); err != nil {
			return err
		}
		werr = r.wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(werr, ErrCoordinatorLost) {
		t.Fatalf("worker error = %v, want ErrCoordinatorLost", werr)
	}
	stats := w.Stats()
	if !stats.Incomplete {
		t.Fatal("final stats not marked incomplete")
	}
	if stats.EventsExecuted == 0 {
		t.Fatal("abandoned worker flushed no executed events")
	}
}

// TestRetryStopsWhenClusterDown pins the retry loop's fatal exit: a
// Loopback worker still redialing when Serve fails returns at its next
// dial, which fails fatally with the cluster down, instead of spending
// the rest of its budget on a cluster that is gone. Worker B's host
// drops off the network for good, so B is past its first
// connectAttempts long before the coordinator, which holds the seat for
// a replacement that never comes, gives up.
func TestRetryStopsWhenClusterDown(t *testing.T) {
	c := rtScn.coordinator(func(c *Coordinator) {
		c.CheckpointEvery = 1
		c.MaxRecoveries = 1
	})
	sm := newSim(t)
	sm.fault = cutAt(1, 9, 0)
	workers := rtScn.pair()
	err := sm.loopback(c, workers, nil)
	if err == nil {
		t.Fatal("Serve succeeded without a replacement for the partitioned worker")
	}
	if errors.Is(err, ErrCoordinatorLost) {
		t.Fatalf("a worker spent its retry budget after the cluster went down: %v", err)
	}
	// The whole budget pauses well over a minute; the coordinator gives
	// up about half a minute after B's connection broke.
	if slept := time.Duration(workers[1].WireSnapshot().BackoffNs); slept > time.Minute {
		t.Fatalf("worker B paused %v between redials of a cluster that is down", slept)
	}
}

// TestLoopbackEndsWhenEveryWorkerGaveUp pins the other way out of an
// in-process cluster: workers that never reach the coordinator give up
// after connectAttempts, and Serve, still waiting to admit them, fails
// once the last has returned instead of waiting on an Accept without a
// deadline. Loopback returns every worker's error joined with Serve's.
func TestLoopbackEndsWhenEveryWorkerGaveUp(t *testing.T) {
	sm := newSim(t)
	workers := rtScn.pair(func(w *Worker) *Worker {
		w.MaxPark = -1
		w.Dial = func() (net.Conn, error) { return nil, errors.New("test: no route to the coordinator") }
		return w
	})
	err := sm.loopback(rtScn.coordinator(nil), workers, nil)
	if err == nil {
		t.Fatal("a cluster no worker reached succeeded")
	}
	for i := range workers {
		if want := fmt.Sprintf("worker %d: distsim: no coordinator after %d attempts", i, connectAttempts); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// cutAt is a fault hook that takes host off the network for span (0:
// for good) from its n-th frame on.
func cutAt(host, n int, span time.Duration) func(wired) fate {
	seen := 0
	return func(f wired) fate {
		if f.from == host {
			if seen++; seen == n {
				return fate{act: cut, span: span}
			}
		}
		return fate{}
	}
}

// TestPartitionShorterThanTimeout pins the heartbeat-during-partition
// interplay from the safe side: a two-way blackhole (the coordinator's
// host off the network from its 10th frame on) shorter than the
// coordinator's per-frame deadline must never escalate to rollback
// recovery — the silence stays under the timeout, heartbeats resume
// when the partition lifts, and any frame the blackhole ate heals by
// re-adoption. Rollback is armed, so a false escalation would be
// visible in Recoveries.
func TestPartitionShorterThanTimeout(t *testing.T) {
	want := rtScn.reference()
	c := rtScn.coordinator(func(c *Coordinator) {
		c.CheckpointEvery = 1
		c.MaxRecoveries = 2
	})
	sm := newSim(t)
	sm.fault = cutAt(coord, 10, DefaultTimeout/2)
	err := sm.loopback(c, rtScn.pair(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Recoveries != 0 {
		t.Fatalf("sub-timeout partition escalated to %d rollback recoveries", c.Recoveries)
	}
	wantCounts(t, "short-partition run", c, want)
}

// TestPartitionLongerThanTimeoutRecovers is the flip side: a partition
// that outlives the deadline must trigger the failure machinery. Worker
// B's host drops off the network mid-run for good — its writes vanish
// and its dials fail — so its heartbeats stop arriving, the deadline
// fires, resume fails, the worker gives up after one reconnect cycle
// (parking disabled), and a fresh replacement on a healthy host carries
// the seat through rollback recovery: Recoveries must advance, and the
// counts must still match the uninterrupted run.
func TestPartitionLongerThanTimeoutRecovers(t *testing.T) {
	want, wantWindows := rtScn.reference(), rtScn.windows()
	c := rtScn.coordinator(func(c *Coordinator) {
		c.CheckpointEvery = 1
		c.MaxRecoveries = 2
	})
	sm := newSim(t)
	ln := sm.listen()
	wA, wB, wB2 := rtScn.worker(false, false), rtScn.worker(true, false), rtScn.worker(true, false)
	wB.MaxPark = -1
	sm.fault = cutAt(1, 9, 0)
	wA.Dial, wB.Dial, wB2.Dial = ln.host(0), ln.host(1), ln.host(2)
	sm.attach(c, wA, wB, wB2)
	err := sm.run(func() error {
		ra := sm.start(func() error { return wA.Run("") })
		rb := sm.start(func() error {
			if wB.Run("") == nil {
				return errors.New("partitioned worker exited cleanly")
			}
			return wB2.Run("")
		})
		if err := c.Serve(ln, 2); err != nil {
			return fmt.Errorf("Serve: %w", err)
		}
		return errors.Join(ra.wait(), rb.wait())
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Recoveries == 0 {
		t.Fatal("over-timeout partition never triggered rollback recovery")
	}
	wantCounts(t, "long-partition run", c, want)
	if lattice(c) != wantWindows {
		t.Fatalf("windows = %d, want %d", lattice(c), wantWindows)
	}
}
