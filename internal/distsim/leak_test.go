package distsim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestNoGoroutineLeftBehind pins that a cluster cleans up after itself:
// once Loopback returns, the goroutine count settles back to what it
// was before the run — every worker's heartbeat goroutine and pool
// threads are gone, and the coordinator started none. It holds for a
// clean run, for one under chaos faults and for one that fails because
// a worker died with no recovery budget.
func TestNoGoroutineLeftBehind(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"clean", func(t *testing.T) {
			launch(t, rtScn.coordinator(nil), rtScn.pair(threads(2)))
		}},
		{"chaos", func(t *testing.T) {
			chaosLaunch(t, ceScn.coordinator(chaosBudgets), ceScn.pair(threads(2)),
				&chaos.Config{Seed: 61, Drop: 0.03, Reset: 0.01},
				&chaos.Config{Seed: 62, Corrupt: 0.03})
		}},
		{"worker killed", func(t *testing.T) {
			c := rtScn.coordinator(func(c *Coordinator) { c.ReconnectWait = 100 * time.Millisecond })
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
			if err := Loopback(c, ws, nil); err == nil {
				t.Fatal("a run with a dead worker and no recovery budget succeeded")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run(t)
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(10 * time.Millisecond)
			}
			if n > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the run, %d a second after it:\n%s", before, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
