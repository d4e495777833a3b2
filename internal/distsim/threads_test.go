package distsim

import (
	"net"
	"testing"
	"time"
)

// TestThreadsHeartbeatDuringBusyWindow pins worker liveness while the
// pool computes: the heartbeat ticker lives on its own goroutine, so a
// long busy window (every LP holds its thread well past the heartbeat
// interval) must still produce a stream of frameHeartbeat frames — and
// their numbers (the newest request received, the newest answered)
// must advance window over window, proving the beats carry fresh
// progress, not a frozen snapshot. The test plays coordinator directly over an in-memory
// pipe so it can observe raw frames mid-window.
func TestThreadsHeartbeatDuringBusyWindow(t *testing.T) {
	t.Parallel()
	const (
		windows  = 3
		holdTime = 60 * time.Millisecond // per-LP busy stretch per window
		timeout  = 0.03                  // config TimeoutSec -> beats every 10ms
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

	l := newLink(newPeer(nil, cc))
	defer l.close()

	f, err := l.recv(10 * time.Second)
	if err != nil || f.Kind != frameRegister {
		t.Fatalf("register: frame %v, err %v", f, err)
	}
	if err := l.send(&frame{Kind: frameConfig, Lookahead: 1, Horizon: windows,
		Seed: 1, Session: 7, TimeoutSec: timeout}); err != nil {
		t.Fatalf("config: %v", err)
	}

	// beats[w] records the high points of the heartbeats' numbers seen
	// while window w was executing; the stop after the last window shuts
	// the worker down cleanly, so Run's error reflects the protocol, not
	// the teardown.
	type marks struct {
		n           int
		sent, acked uint64
	}
	beats := make([]marks, windows+2)
	for win := uint64(1); win <= windows+1; win++ {
		req, want := &frame{Kind: frameWindow, End: float64(win), WinSeq: win}, frameDone
		if win > windows {
			req, want = &frame{Kind: frameStop}, frameStats
		}
		if err := l.send(req); err != nil {
			t.Fatalf("%s %d: %v", req.Kind, win, err)
		}
		for {
			fr, err := l.recv(10 * time.Second)
			if err != nil {
				t.Fatalf("window %d read: %v", win, err)
			}
			if fr.Kind == frameHeartbeat {
				b := &beats[win]
				b.n++
				b.sent = max(b.sent, fr.SendSeq)
				b.acked = max(b.acked, fr.RecvSeq)
				continue
			}
			if fr.Kind != want {
				t.Fatalf("window %d: unexpected %s frame", win, fr.Kind)
			}
			break
		}
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
		// The received number proves the worker has this window's frame;
		// the answered one counts the done frames already out.
		if want := uint64(win); b.acked != want {
			t.Fatalf("window %d: heartbeat ack watermark %d, want %d", win, b.acked, want)
		}
		if want := uint64(win - 1); b.sent != want {
			t.Fatalf("window %d: heartbeat send watermark %d, want %d", win, b.sent, want)
		}
	}
}
