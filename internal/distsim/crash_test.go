package distsim

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The coordinator crash-restart drills: Serve is killed at a scripted
// barrier (the crash hooks return errCrashHook right after or right
// before the journal append), a second coordinator restarts from the
// same journal on the same listener and re-adopts the parked workers.
// The plain restart, on every layout, thread count and observability
// setting and under chaos, is a column of TestFaultMatrix; this file
// holds the harness and the drills that need more than the harness:
// the done-frame replay before a barrier, the fallback ladder
// (re-adopt -> rollback -> fail), a foreign checkpoint, the worker
// park budget and partitions.

// crashRestart drives the two-phase harness. Two coordinators share the
// scenario, tune and one journal; arm sets the first one's crash hook.
// The workers launch against the listener (wrap, as in Loopback, may put
// an injector on it), c1 serves until its hook fires, and — after an
// outage on the scripted clock — c2 restarts on the same listener: the
// workers keep dialing the same address, exactly as they would a
// restarted process. Worker errors fail the test, so a scenario only
// passes when the workers rode out the outage.
func (s scenario) crashRestart(t *testing.T, tune, arm func(*Coordinator), workers []*Worker, outage time.Duration, wrap func(net.Listener) net.Listener) (c1, c2 *Coordinator) {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "coord.journal")
	sm := newSim(t)
	ln := net.Listener(sm.listen())
	for _, w := range workers {
		w.Dial = simDial(ln)
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
	arm(c1)
	sm.attach(c1, workers...)
	sm.attach(c2)
	err := sm.run(func() error {
		runs := make([]*result, len(workers))
		for i, w := range workers {
			runs[i] = sm.start(func() error { return w.Run("") })
		}
		if err := c1.Serve(ln, len(workers)); !errors.Is(err, errCrashHook) {
			return fmt.Errorf("first Serve = %v, want crash hook", err)
		}
		sm.sleep(outage)
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

// TestCrashRestartBeforeBarrier kills the coordinator after the
// workers executed a window but before its journal record became
// durable: the restarted coordinator's tip trails the cluster by one
// window, so it re-sends that window, and each worker must answer with
// the done frame its replaced link retained — byte for byte the one it
// sent before the crash — without executing an event.
func TestCrashRestartBeforeBarrier(t *testing.T) {
	want, wantWindows := rtScn.reference(), rtScn.windows()
	workers := rtScn.pair()
	taps := make([]*doneTap, len(workers))
	wrap := func(ln net.Listener) net.Listener {
		for i, w := range workers {
			taps[i] = &doneTap{w: w}
			w.Dial = faulty(taps[i].conn, w.Dial)
		}
		return ln
	}
	_, c2 := rtScn.crashRestart(t, nil, beforeBarrier(4), workers, 0, wrap)
	wantCounts(t, "done-replay run", c2, want)
	if lattice(c2) != wantWindows {
		t.Fatalf("windows = %d, want %d", lattice(c2), wantWindows)
	}
	wantReadopted(t, c2)
	for i, tp := range taps {
		// The first connection died with the crash; the first done frame
		// on a later one answers the re-sent window.
		var before, replay *tappedDone
		for j := range tp.dones {
			if d := &tp.dones[j]; d.conn == 0 {
				before = d
			} else if replay == nil {
				replay = d
			}
		}
		if before == nil || replay == nil {
			t.Fatalf("worker %d wrote no done frame before or after the crash", i)
		}
		if !bytes.Equal(replay.payload, before.payload) {
			t.Errorf("worker %d answered the re-sent window with another done frame than the one sent before the crash", i)
		}
		if replay.executed != before.executed {
			t.Errorf("worker %d executed %d events answering the re-sent window", i, replay.executed-before.executed)
		}
	}
}

// TestCrashRestartDuplicatedHandshake re-adopts the workers over a
// network that delivers every re-adoption frame twice: the
// coordinator's coord-hello and each worker's readopt arrive again once
// the handshake is over, and each side drops the copy as noise, as it
// does a duplicated hello or register.
func TestCrashRestartDuplicatedHandshake(t *testing.T) {
	workers := rtScn.pair()
	wrap := func(ln net.Listener) net.Listener {
		for _, w := range workers {
			w.Dial = faulty(scripted(twice(frameReadopt)), w.Dial)
		}
		return wrapListener{ln.(*simListener), scripted(twice(frameCoordHello))}
	}
	_, c2 := rtScn.crashRestart(t, nil, afterBarrier(3), workers, 0, wrap)
	wantCounts(t, "restart over duplicated handshakes", c2, rtScn.reference())
	wantReadopted(t, c2)
}

// doneTap records every done frame a worker writes: its payload, the
// connection it went out on (0-based, in dial order), and how many
// events the worker had executed by then. Only the worker's serve
// goroutine dials and writes done frames.
type doneTap struct {
	w     *Worker
	conns int
	dones []tappedDone
}

type tappedDone struct {
	conn     int
	payload  []byte
	executed uint64
}

type tapConn struct {
	net.Conn
	tp *doneTap
	id int
}

func (tp *doneTap) conn(c net.Conn) net.Conn {
	tp.conns++
	return tapConn{c, tp, tp.conns - 1}
}

// Write sees one whole wire frame per call (peer.writeFrame).
func (c tapConn) Write(p []byte) (int, error) {
	var f frame
	var evs []Event
	if len(p) > wireHeaderLen && unmarshalFrameInto(&f, &evs, p[wireHeaderLen:]) == nil && f.Kind == frameDone {
		c.tp.dones = append(c.tp.dones, tappedDone{c.id, bytes.Clone(p[wireHeaderLen:]), c.tp.w.Stats().EventsExecuted})
	}
	return c.Conn.Write(p)
}

// TestCrashRestartFallbackRollback exercises the middle rung of the
// restart ladder: one worker dies during the coordinator outage, so a
// fresh replacement registers during re-adoption, its state cannot be
// trusted at the journal tip, and the whole federation rolls back to
// the journaled checkpoint ref instead. The survivor is still
// re-adopted (it carries the restore like any rollback), and the
// finished counts match the uninterrupted run.
func TestCrashRestartFallbackRollback(t *testing.T) {
	want := rtScn.reference()
	dir := t.TempDir()
	sm := newSim(t)
	ln := sm.listen()
	coordinator := func() *Coordinator {
		c := rtScn.coordinator(nil)
		c.CheckpointPath = filepath.Join(dir, "cluster.ckpt")
		c.CheckpointEvery = 1
		c.JournalPath = filepath.Join(dir, "coord.journal")
		return c
	}
	c1, c2 := coordinator(), coordinator()
	c1.crashAfterBarrier = 3

	// Worker A survives the outage parked; worker B gives up after one
	// reconnect cycle (parking disabled), like a process whose own host
	// rebooted with the coordinator's. Its replacement registers with B's
	// static LP set; the restarted coordinator must fall back to rollback.
	wA, wB, wB2 := rtScn.worker(false, false), rtScn.worker(true, false), rtScn.worker(true, false)
	wB.MaxPark = -1
	for _, w := range []*Worker{wA, wB, wB2} {
		w.Dial = ln.dial
	}
	sm.attach(c1, wA, wB, wB2)
	sm.attach(c2)
	err := sm.run(func() error {
		ra := sm.start(func() error { return wA.Run("") })
		rb := sm.start(func() error { return wB.Run("") })
		if err := c1.Serve(ln, 2); !errors.Is(err, errCrashHook) {
			return fmt.Errorf("first Serve = %v, want crash hook", err)
		}
		if rb.wait() == nil {
			return errors.New("worker B exited cleanly during the outage")
		}
		rb2 := sm.start(func() error { return wB2.Run("") })
		if err := c2.Serve(ln, 2); err != nil {
			return fmt.Errorf("restarted Serve: %w", err)
		}
		return errors.Join(ra.wait(), rb2.wait())
	})
	if err != nil {
		t.Fatal(err)
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
	want, wantWindows := rtScn.reference(), rtScn.windows()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "cluster.ckpt")
	sm := newSim(t)
	ln := sm.listen()
	coordinator := func() *Coordinator {
		c := rtScn.coordinator(nil)
		c.CheckpointPath = ckpt
		c.CheckpointEvery = 1
		c.JournalPath = filepath.Join(dir, "coord.journal")
		sm.attach(c)
		return c
	}
	workers := rtScn.pair()
	for _, w := range workers {
		w.Dial = ln.dial
	}
	sm.attach(nil, workers...)

	var c2 *Coordinator
	err := sm.run(func() error {
		runs := make([]*result, len(workers))
		for i, w := range workers {
			runs[i] = sm.start(func() error { return w.Run("") })
		}
		// The hook fires once barrier 4 is journaled, before its
		// checkpoint: the file and the journal's ref are at barrier 3, the
		// tip at 4.
		c1 := coordinator()
		c1.crashAfterBarrier = 4
		if err := c1.Serve(ln, 2); !errors.Is(err, errCrashHook) {
			return fmt.Errorf("first Serve = %v, want crash hook", err)
		}
		real, err := os.ReadFile(ckpt)
		if err != nil {
			return err
		}
		for _, windows := range []uint64{2, 5} {
			at, ck, err := decodeClusterCheckpoint(real)
			if err != nil {
				return err
			}
			if at.windows != 3 {
				return fmt.Errorf("checkpoint on disk is at barrier %d, want 3", at.windows)
			}
			at.windows = windows
			ck.cut = at.cut()
			if err := ck.save(ckpt, at); err != nil {
				return err
			}
			c := coordinator()
			if err := c.Serve(ln, 2); !errors.Is(err, errCheckpointMismatch) {
				return fmt.Errorf("restart over a checkpoint at barrier %d = %v, want errCheckpointMismatch", windows, err)
			}
			if c.Readopted != 0 {
				return fmt.Errorf("refused restart re-adopted %d workers first", c.Readopted)
			}
		}
		if err := os.WriteFile(ckpt, real, 0o644); err != nil {
			return err
		}
		c2 = coordinator()
		if err := c2.Serve(ln, 2); err != nil {
			return fmt.Errorf("restart over the real checkpoint: %w", err)
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
	sm := newSim(t)
	ln := sm.listen()
	c1, c2 := rtScn.coordinator(nil), rtScn.coordinator(nil)
	c1.JournalPath, c2.JournalPath = journal, journal
	c1.crashAfterBarrier = 2

	wA, wB, wB2 := rtScn.worker(false, false), rtScn.worker(true, false), rtScn.worker(true, false)
	wB.MaxPark = -1
	for _, w := range []*Worker{wA, wB, wB2} {
		w.Dial = ln.dial
	}
	sm.attach(c1, wA, wB, wB2)
	sm.attach(c2)
	err := sm.run(func() error {
		sm.start(func() error { return wA.Run("") }) // fails with the aborted restart; ignored
		rb := sm.start(func() error { return wB.Run("") })
		if err := c1.Serve(ln, 2); !errors.Is(err, errCrashHook) {
			return fmt.Errorf("first Serve = %v, want crash hook", err)
		}
		if rb.wait() == nil {
			return errors.New("worker B exited cleanly during the outage")
		}
		sm.start(func() error { return wB2.Run("") }) // the replacement; its run fails, ignored
		err := c2.Serve(ln, 2)
		ln.Close()
		switch {
		case err == nil:
			return errors.New("restart succeeded despite needing a rollback with no checkpoint")
		case errors.Is(err, errCrashHook):
			return fmt.Errorf("restart failed with the crash hook: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerParkGiveUp pins the bounded park: a worker whose
// coordinator dies and never comes back burns its park budget, returns
// a typed ErrCoordinatorLost, and still flushes its final local stats.
func TestWorkerParkGiveUp(t *testing.T) {
	sm := newSim(t)
	ln := sm.listen()
	c := NewCoordinator(2, 1.0, 50, 7)
	c.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
	c.crashAfterBarrier = 2

	w := NewWorker(0, 1)
	InstallPHOLD(w, 2, 4, 0.5, 3)
	w.MaxPark = 3
	w.Dial = ln.dial
	sm.attach(c, w)
	var werr error
	err := sm.run(func() error {
		r := sm.start(func() error { return w.Run("") })
		if err := c.Serve(ln, 1); !errors.Is(err, errCrashHook) {
			return fmt.Errorf("Serve = %v, want crash hook", err)
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
	workers := rtScn.pair()
	err := sm.loopback(c, workers, func(ln net.Listener) net.Listener {
		workers[1].Dial = (&cut{s: sm, from: 8, refuse: true}).dial(simDial(ln))
		return ln
	})
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

// cut is a scripted partition: from the from-th write across the conns
// it wraps (0-based, counted on every side it wraps), every write
// vanishes for span of the scripted clock — for good when span is 0 —
// and, with refuse set, every dial through it fails, as it does to a
// host the network no longer reaches. The connections stay up.
type cut struct {
	s      *sim
	from   int
	span   time.Duration
	refuse bool
	n      int       // writes seen, under s.mu
	start  time.Time // when the from-th write came, under s.mu
}

// on counts a write when write is set and reports whether the
// partition is in force.
func (k *cut) on(write bool) bool {
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	if write {
		if k.n == k.from {
			k.start = k.s.clock
		}
		k.n++
	}
	return k.n > k.from && (k.span == 0 || k.s.clock.Before(k.start.Add(k.span)))
}

type cutConn struct {
	net.Conn
	k *cut
}

func (c cutConn) Write(p []byte) (int, error) {
	if c.k.on(true) {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (k *cut) conn(c net.Conn) net.Conn { return cutConn{c, k} }

// dial passes every conn dial opens through the partition.
func (k *cut) dial(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		if k.refuse && k.on(false) {
			return nil, errors.New("cut: host unreachable")
		}
		return faulty(k.conn, dial)()
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
	want := rtScn.reference()
	c := rtScn.coordinator(func(c *Coordinator) {
		c.CheckpointEvery = 1
		c.MaxRecoveries = 2
	})
	sm := newSim(t)
	k := &cut{s: sm, from: 20, span: DefaultTimeout / 2}
	workers := rtScn.pair()
	err := sm.loopback(c, workers, func(ln net.Listener) net.Listener {
		for _, w := range workers {
			w.Dial = k.dial(simDial(ln))
		}
		return wrapListener{ln.(*simListener), k.conn}
	})
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
	wA.Dial, wB2.Dial = ln.dial, ln.dial
	wB.Dial = (&cut{s: sm, from: 8, refuse: true}).dial(ln.dial)
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
