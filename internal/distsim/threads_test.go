package distsim

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
)

// The multicore-worker suite pins the Threads contract end to end:
// running a worker's LPs across an intra-worker goroutine pool must be
// bit-identical to the sequential worker and to the single-process
// parsim reference — and the property must survive every distributed
// mechanism the engine already has (idle-window skipping, chaos
// faults, checkpoint file resume, live migration, and coordinator
// crash-restart). Per-LP sends are buffered thread-locally during the
// window and merged in canonical LP order at the barrier, so the wire
// traffic (and therefore everything downstream of it) is byte-for-byte
// the traffic a sequential pass produces. The pool may run any window
// inline instead (internal/pool); the serial tests of the suite run a
// second time with that switch forced between any two windows.

// TestThreadsDenseBitIdentical is the core property: the dense PHOLD
// federation run with 4-thread workers matches the sequential
// distributed run and the single-process reference, at every pool
// width.
func TestThreadsDenseBitIdentical(t *testing.T) { underPoolSwitches(t, testThreadsDenseBitIdentical) }

func testThreadsDenseBitIdentical(t *testing.T) {
	want := rtScn.reference()
	seqCounts, seqWindows := referenceRun(t) // Threads = 1 (inline path)
	if !slices.Equal(seqCounts, want) {
		t.Fatalf("sequential distributed run diverges from reference:\nwant %v\ngot  %v", want, seqCounts)
	}
	for _, n := range []int{2, 4} {
		c := rtScn.coordinator(nil)
		launch(t, c, rtScn.pair(threads(n)))
		wantCounts(t, fmt.Sprintf("threads=%d run", n), c, want)
		if lattice(c) != seqWindows {
			t.Fatalf("threads=%d windows = %d, want %d", n, lattice(c), seqWindows)
		}
	}
}

// TestThreadsSparseSkipBitIdentical runs the sparse regime with
// 4-thread workers: the per-LP idle check inside the
// pool (an LP whose next event lies past the window end never touches
// its engine) must not disturb the skip lattice or the counts.
func TestThreadsSparseSkipBitIdentical(t *testing.T) {
	underPoolSwitches(t, testThreadsSparseSkipBitIdentical)
}

func testThreadsSparseSkipBitIdentical(t *testing.T) {
	seq := skRun(t) // Threads = 1
	c := skScn.coordinator(nil)
	launch(t, c, skScn.pair(threads(4)))
	wantCounts(t, "threaded sparse run", c, skScn.reference())
	if c.WindowsSkipped == 0 {
		t.Fatal("threaded sparse run skipped no windows")
	}
	// The skip lattice is driven by the Next watermarks on done frames;
	// identical traffic means an identical lattice, executed and skipped.
	if c.Windows != seq.Windows || c.WindowsSkipped != seq.WindowsSkipped {
		t.Fatalf("threaded lattice %d+%d windows, sequential %d+%d",
			c.Windows, c.WindowsSkipped, seq.Windows, seq.WindowsSkipped)
	}
}

// TestThreadsUnderChaos injects drops, duplicates and resets into both
// directions of the wire while 4-thread workers execute the sparse
// federation: session resume replays the barrier-merged
// frames, so the faulty network costs retries, never bit-identity.
func TestThreadsUnderChaos(t *testing.T) {
	t.Parallel()
	c := skScn.coordinator(chaosBudgets)
	chaosLaunch(t, c, skScn.pair(threads(4)),
		&chaos.Config{Seed: 131, Drop: 0.03, Dup: 0.1, Reset: 0.02},
		&chaos.Config{Seed: 231, Drop: 0.03, Dup: 0.1, Reset: 0.02})
	wantCounts(t, "chaos threads run", c, skScn.reference())
}

// TestThreadsCheckpointResume kills a worker mid-run with recovery
// disabled and resumes a second coordinator from the persisted cluster
// checkpoint, with 4-thread workers on both attempts: snapshots are
// taken at barriers — where the per-LP buffers are already drained —
// so pooled execution is invisible to the checkpoint format.
func TestThreadsCheckpointResume(t *testing.T) { underPoolSwitches(t, testThreadsCheckpointResume) }

func testThreadsCheckpointResume(t *testing.T) {
	want, _ := referenceRun(t)
	_, c2 := rtScn.failThenResume(t, nil, threads(4))
	wantCounts(t, "resumed threads run", c2, want)
}

// TestThreadsRebalanceBitIdentical runs the skewed federation with
// live migration and 4-thread workers: LPs move between pooled workers
// mid-run (the pool width stays fixed while the item set grows and
// shrinks), at least one migration must actually happen, and the
// counts still match the single-process reference.
func TestThreadsRebalanceBitIdentical(t *testing.T) {
	underPoolSwitches(t, testThreadsRebalanceBitIdentical)
}

func testThreadsRebalanceBitIdentical(t *testing.T) {
	c := mgScn.coordinator(rebalancing)
	launch(t, c, mgScn.pair(threads(4)))
	if c.Migrations == 0 {
		t.Fatal("skewed threads run rebalanced nothing; the scenario no longer exercises migration")
	}
	wantCounts(t, "rebalanced threads run", c, mgScn.reference())
}

// TestThreadsCrashRestart kills the coordinator at a scripted journal
// barrier and restarts it against parked 4-thread workers: re-adoption
// replays from the journal tip, the pool survives the reconnect (it is
// bound to the worker's run, not the connection), and the finished run
// matches the uninterrupted sequential one.
func TestThreadsCrashRestart(t *testing.T) { underPoolSwitches(t, testThreadsCrashRestart) }

func testThreadsCrashRestart(t *testing.T) {
	want, wantWindows := referenceRun(t)
	_, c2 := rtScn.crashRestart(t, nil, afterBarrier(3), rtScn.pair(crashBudgets, threads(4)), 500*time.Millisecond, nil)
	wantCounts(t, "restarted threads run", c2, want)
	if lattice(c2) != wantWindows {
		t.Fatalf("windows = %d, want %d", lattice(c2), wantWindows)
	}
	if c2.Readopted != 2 {
		t.Fatalf("readopted = %d, want 2", c2.Readopted)
	}
}

// TestThreadsHeartbeatDuringBusyWindow pins worker liveness while the
// pool computes: the heartbeat ticker lives on its own goroutine, so a
// long busy window (every LP holds its thread well past the heartbeat
// interval) must still produce a stream of frameHeartbeat frames — and
// their watermarks (the sequenced-send count in the frame, the
// processed-inbound ack on the wire header) must advance window over
// window, proving the beats carry fresh progress, not a frozen
// snapshot. The test plays coordinator directly over an in-memory
// pipe so it can observe raw frames mid-window.
func TestThreadsHeartbeatDuringBusyWindow(t *testing.T) {
	t.Parallel()
	const (
		windows  = 3
		holdTime = 150 * time.Millisecond // per-LP busy stretch per window
		timeout  = 0.06                   // config TimeoutSec -> beats every 20ms
	)

	w := NewWorker(0, 1, 2, 3)
	w.Threads = 4
	w.Setup = func(w *Worker) {
		for _, lp := range w.LPs() {
			lp := lp
			lp.OnMessage = func(Event) {}
			op := lp.E.RegisterOp("test.hold", func([]byte) { time.Sleep(holdTime) })
			// One event per LP per window, each holding its pool thread:
			// the window's busy stretch spans many heartbeat intervals.
			for win := 0; win < windows; win++ {
				lp.E.AtOp(float64(win)+0.5, op, nil)
			}
		}
	}

	wc, cc := net.Pipe()
	werr := make(chan error, 1)
	w.Dial = func() (net.Conn, error) { return wc, nil }
	go func() { werr <- w.Run("") }()

	l := newLink(newPeer(cc))
	defer l.close()

	f, err := l.recv(10 * time.Second)
	if err != nil || f.Kind != frameRegister {
		t.Fatalf("register: frame %v, err %v", f, err)
	}
	if err := l.send(&frame{Kind: frameConfig, Lookahead: 1, Horizon: windows,
		Seed: 1, Session: 7, TimeoutSec: timeout}); err != nil {
		t.Fatalf("config: %v", err)
	}

	// beats[w] records the watermark high points of the heartbeats seen
	// while window w was executing.
	type marks struct {
		n           int
		sent, acked uint64
	}
	beats := make([]marks, windows+1)
	for win := uint64(1); win <= windows; win++ {
		if err := l.send(&frame{Kind: frameWindow, End: float64(win), WinSeq: win}); err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		for {
			// Read below the link layer: heartbeats are unsequenced, and
			// the progress ack rides the wire header, not the frame.
			seq, ack, payload, err := l.p.readFrame(10 * time.Second)
			if err != nil {
				t.Fatalf("window %d read: %v", win, err)
			}
			var fr frame
			var evs []Event
			if err := unmarshalFrameInto(&fr, &evs, payload); err != nil {
				t.Fatalf("window %d decode: %v", win, err)
			}
			if fr.Kind == frameHeartbeat {
				b := &beats[win]
				b.n++
				b.sent = max(b.sent, fr.SendSeq)
				b.acked = max(b.acked, ack)
				continue
			}
			if fr.Kind != frameDone {
				t.Fatalf("window %d: unexpected %s frame", win, fr.Kind)
			}
			// Keep the link's sequence discipline coherent with the raw
			// reads, so the post-run l.recv sees no artificial gap.
			l.recvSeq = seq
			l.ackedIn.Store(seq)
			break
		}
	}

	// Shut the worker down cleanly so Run's error reflects the
	// protocol, not the teardown.
	if err := l.send(&frame{Kind: frameStop}); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for {
		f, err := l.recv(10 * time.Second)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if f.Kind == frameHeartbeat {
			continue
		}
		if f.Kind != frameStats {
			t.Fatalf("expected stats, got %s", f.Kind)
		}
		break
	}
	if err := l.send(&frame{Kind: frameBye}); err != nil {
		t.Fatalf("bye: %v", err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}

	for win := 1; win <= windows; win++ {
		b := beats[win]
		if b.n == 0 {
			t.Fatalf("window %d: no heartbeats during a %v busy stretch", win, holdTime)
		}
		// The ack watermark proves the worker processed this window's
		// frame; the send watermark counts the done frames already out.
		if want := uint64(win); b.acked != want {
			t.Fatalf("window %d: heartbeat ack watermark %d, want %d", win, b.acked, want)
		}
		if want := uint64(win - 1); b.sent != want {
			t.Fatalf("window %d: heartbeat send watermark %d, want %d", win, b.sent, want)
		}
	}
}
