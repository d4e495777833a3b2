package distsim

import (
	"errors"
	"testing"
)

// referenceRun executes the unkilled distributed run and returns its
// per-LP counts and window lattice.
func referenceRun(t *testing.T) ([]uint64, uint64) {
	t.Helper()
	c := rtScn.coordinator(nil)
	launch(t, c, rtScn.pair())
	return c.PerLPCounts(), lattice(c)
}

// TestKillWorkerMidWindowRecovers is the end-to-end fault-tolerance
// property: a worker killed mid-window over loopback TCP is replaced,
// the federation rolls back to the last window-barrier checkpoint, and
// the finished run's counters are identical to a run that was never
// killed. The crash costs one window of re-execution, not the run.
func TestKillWorkerMidWindowRecovers(t *testing.T) {
	want, wantWindows := referenceRun(t)
	c := rtScn.coordinator(func(c *Coordinator) {
		c.CheckpointEvery = 1
		c.MaxRecoveries = 1
	})
	rtScn.killAndRecover(t, c)
	wantCounts(t, "recovered run", c, want)
	if lattice(c) != wantWindows {
		t.Fatalf("windows = %d, want %d", lattice(c), wantWindows)
	}
}

// TestHungWorkerSurfacesTimeout pins the robustness fix: a worker that
// registers and then goes silent used to block Coordinator.Serve
// forever; now the per-frame deadline surfaces an error.
func TestHungWorkerSurfacesTimeout(t *testing.T) {
	sm := newSim(t)
	ln := sm.listen()
	c := NewCoordinator(2, 1.0, 10, 1)

	// A live worker for LP 0, and a raw connection that registers LP 1
	// and then hangs without ever serving a window.
	w := NewWorker(0)
	w.Setup = func(w *Worker) { w.LP(0).OnMessage = func(Event) {} }
	w.Dial = ln.dial
	sm.attach(c, w)
	err := sm.run(func() error {
		sm.start(func() error { return w.Run("") }) // dies with the run; ignored
		hung, err := ln.dial()
		if err != nil {
			return err
		}
		defer hung.Close()
		if err := newPeer(sm, hung).sendRaw(&frame{Kind: frameRegister, LPs: []int{1}}, 0); err != nil {
			return err
		}
		err = c.Serve(ln, 2)
		ln.Close()
		if err == nil {
			return errors.New("Serve succeeded with a hung worker")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSlowWorkerHeartbeatsSurvive is the flip side of the timeout: a
// worker that computes for several multiples of the coordinator
// timeout stays alive because its heartbeats keep arriving.
func TestSlowWorkerHeartbeatsSurvive(t *testing.T) {
	c := NewCoordinator(1, 1.0, 2, 1)
	sm := newSim(t)
	w := NewWorker(0)
	w.Setup = func(w *Worker) {
		lp := w.LP(0)
		lp.OnMessage = func(Event) {}
		lp.E.Schedule(0.5, func() { sm.sleep(3 * DefaultTimeout) })
	}
	if err := sm.loopback(c, []*Worker{w}, nil); err != nil {
		t.Fatal(err)
	}
	if lattice(c) != 2 {
		t.Fatalf("windows = %d, want 2", lattice(c))
	}
}

// TestBigDoneFrameBehindSlowSeat pins the one case the coordinator's
// serial fan-in changes: it reads the replies in seat order, so a done
// frame bigger than the socket buffers waits in its worker's write
// until the coordinator reaches that seat. Here seat 0 sleeps inside
// window 3 for five Timeouts (its heartbeats keep it alive) while seat
// 1 ships 8 MiB of Event.Data in the same window: seat 1's write
// passes its deadline and the seat heals by session resume, which costs
// a reconnect and the frame's retransmission but no rollback. The
// event is due past the horizon, so the model never sees it.
func TestBigDoneFrameBehindSlowSeat(t *testing.T) {
	c := rtScn.coordinator(nil)
	sm := newSim(t)
	ws := rtScn.pair()
	setupA, setupB := ws[0].Setup, ws[1].Setup
	ws[0].Setup = func(w *Worker) {
		setupA(w)
		w.LP(0).E.Schedule(2.5, func() { sm.sleep(5 * DefaultTimeout) })
	}
	ws[1].Setup = func(w *Worker) {
		setupB(w)
		lp := w.LP(3)
		lp.E.Schedule(2.5, func() { lp.Send(0, 2*rtScn.horizon, make([]byte, 8<<20)) })
	}
	if err := sm.loopback(c, ws, nil); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, "run with a big frame behind a slow seat", c, rtScn.reference())
	if c.Recoveries != 0 {
		t.Fatalf("%d rollback recoveries", c.Recoveries)
	}
	t.Logf("session resumes: %d", c.Reconnects)
}

// TestCoordinatorFileResume exercises checkpoint persistence: a run
// whose coordinator fails (a worker dies with recovery disabled)
// leaves its last cluster checkpoint on disk; a second Serve with
// ResumePath picks the run up at that barrier and finishes with
// counters identical to an uninterrupted run. The first Serve also
// covers the missing-file branch (ResumePath set, nothing to resume).
func TestCoordinatorFileResume(t *testing.T) {
	want, wantWindows := referenceRun(t)
	_, c2 := rtScn.failThenResume(t, nil)
	wantCounts(t, "resumed run", c2, want)
	if lattice(c2) != wantWindows {
		t.Fatalf("windows = %d, want %d", lattice(c2), wantWindows)
	}
}
