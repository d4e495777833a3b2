package distsim

import (
	"net"
	"runtime"
	"testing"

	"repro/internal/chaos"
)

// TestNoGoroutineLeftBehind pins that a cluster cleans up after itself:
// once the run returns, the goroutine count is back to what it was
// before — every worker's heartbeat goroutine (joined before Run
// returns) and pool threads are gone, and the coordinator started none.
// It holds for a clean run and for one whose worker reconnected, over
// loopback TCP on the wall clock, and, on the scripted clock, for one
// under chaos faults and for one that fails because a worker died with
// no recovery budget.
func TestNoGoroutineLeftBehind(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"clean", func(t *testing.T) {
			if err := Loopback(rtScn.coordinator(nil), rtScn.pair(threads(2)), nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"reconnected", func(t *testing.T) {
			c := rtScn.coordinator(nil)
			err := Loopback(c, rtScn.pair(threads(2)), func(ln net.Listener) net.Listener {
				return chaos.New(chaos.Config{ResetAt: []uint64{9}}).Listener(ln)
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.Reconnects == 0 {
				t.Fatal("the scripted reset forced no reconnect")
			}
		}},
		{"chaos", func(t *testing.T) {
			chaosLaunch(t, ceScn.coordinator(nil), ceScn.pair(threads(2)),
				&chaos.Config{Seed: 61, Drop: 0.03, Reset: 0.01},
				&chaos.Config{Seed: 62, Corrupt: 0.03})
		}},
		{"worker killed", func(t *testing.T) {
			ws := rtScn.pair()
			ws[0].Threads = 2
			// Worker B's serve goroutine ends mid-window, as if its process
			// died: its deferred cleanup closes the connection.
			setup := ws[1].Setup
			ws[1].Setup = func(w *Worker) {
				setup(w)
				lp := w.LP(3)
				lp.E.AtOp(rtScn.killAt, lp.E.RegisterOp("test.exit", func([]byte) { runtime.Goexit() }), nil)
			}
			if err := newSim(t).loopback(rtScn.coordinator(nil), ws, nil); err == nil {
				t.Fatal("a run with a dead worker and no recovery budget succeeded")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run(t)
			// A goroutine that has signalled its joiner may still be on its
			// way out: yield to it, but never wait on the clock.
			n := runtime.NumGoroutine()
			for i := 0; i < 100 && n > before; i++ {
				runtime.Gosched()
				n = runtime.NumGoroutine()
			}
			if n > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the run, %d after it:\n%s", before, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
