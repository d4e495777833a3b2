package distsim

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/parsim"
)

// The chaos end-to-end suite: a PHOLD federation distributed over two
// workers, with a deterministic fault injector attacking one or both
// directions of the wire, must finish with per-LP event counts
// bit-identical to the fault-free single-process run. Every fault
// class the injector knows is exercised; the failures are absorbed by
// the protocol's integrity checking, duplicate suppression, and
// session-resume reconnects — never by the model. The runs are on the
// scripted clock, except the injector's delays, which are wall-clock
// sleeps and run over loopback TCP.

// ceRun executes the distributed PHOLD run with optional injectors on
// the coordinator side (wrapping the listener, so coordinator->worker
// frames are attacked) and the worker side (wrapping each worker's
// dialed connections). It fails the test unless the run completes and
// matches the reference bit for bit, and returns the coordinator for
// extra assertions.
func ceRun(t *testing.T, coordCfg, workerCfg *chaos.Config) *Coordinator {
	t.Helper()
	c := ceScn.coordinator(nil)
	chaosLaunch(t, c, ceScn.pair(), coordCfg, workerCfg)
	wantCounts(t, "chaos run (against fault-free)", c, ceScn.reference())
	return c
}

func TestChaosCleanBaseline(t *testing.T) {
	t.Parallel()
	c := ceRun(t, nil, nil)
	if c.Reconnects != 0 {
		t.Fatalf("clean run reconnected %d times", c.Reconnects)
	}
}

func TestChaosDrop(t *testing.T) {
	t.Parallel()
	ceRun(t,
		&chaos.Config{Seed: 11, Drop: 0.05},
		&chaos.Config{Seed: 12, Drop: 0.05})
}

func TestChaosDuplicate(t *testing.T) {
	t.Parallel()
	ceRun(t,
		&chaos.Config{Seed: 21, Dup: 0.15},
		&chaos.Config{Seed: 22, Dup: 0.15})
}

func TestChaosReorder(t *testing.T) {
	t.Parallel()
	// Coordinator-side reorder stalls a whole window per hit (the held
	// frame only flushes on the next same-connection write), so keep
	// its rate lower than the worker side, where heartbeats flush
	// holds within a heartbeat interval.
	ceRun(t,
		&chaos.Config{Seed: 31, Reorder: 0.03},
		&chaos.Config{Seed: 32, Reorder: 0.1})
}

func TestChaosCorrupt(t *testing.T) {
	t.Parallel()
	ceRun(t,
		&chaos.Config{Seed: 41, Corrupt: 0.04},
		&chaos.Config{Seed: 42, Corrupt: 0.04})
}

func TestChaosDelayJitter(t *testing.T) {
	t.Parallel()
	c, workers := ceScn.coordinator(nil), ceScn.pair()
	err := Loopback(c, workers, chaosWrap(workers,
		&chaos.Config{Seed: 51, Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond},
		&chaos.Config{Seed: 52, Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond}, tcpDial))
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, "chaos run (against fault-free)", c, ceScn.reference())
}

func TestChaosReset(t *testing.T) {
	t.Parallel()
	c := ceRun(t,
		&chaos.Config{Seed: 61, Reset: 0.08},
		&chaos.Config{Seed: 62, Reset: 0.08})
	if c.Reconnects == 0 {
		t.Fatal("reset run never exercised session resume")
	}
}

func TestChaosScriptedResets(t *testing.T) {
	t.Parallel()
	// Two forced resets at fixed coordinator message indices: the
	// deterministic "network breaks during window N" scenario.
	c := ceRun(t, &chaos.Config{Seed: 71, ResetAt: []uint64{9, 23}}, nil)
	if c.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want >= 2 (two scripted resets)", c.Reconnects)
	}
}

func TestChaosPartitionWithReconnect(t *testing.T) {
	t.Parallel()
	// A two-way blackhole landing mid-run, from the 20th frame on: both
	// directions drop everything, timeouts fire, and the federation heals
	// by session resume once the partition lifts. It outlasts the
	// coordinator's timeout, so the loss is detected *during* the
	// partition, not after it, and lifts inside the resume window that
	// opens then (env.go's table): 3.5 s against a 3 s Timeout.
	c := ceScn.coordinator(func(c *Coordinator) { c.Timeout = 3 * time.Second })
	sm := newSim(t)
	k := &cut{s: sm, from: 20, span: 3500 * time.Millisecond}
	workers := ceScn.pair()
	err := sm.loopback(c, workers, func(ln net.Listener) net.Listener {
		for _, w := range workers {
			w.Dial = k.dial(simDial(ln))
		}
		return cutListener{ln.(*simListener), k}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, "partition run (against fault-free)", c, ceScn.reference())
	if c.Reconnects == 0 {
		t.Fatal("partition run never exercised session resume")
	}
}

func TestChaosEverythingAtOnce(t *testing.T) {
	t.Parallel()
	// The kitchen sink at low intensity: every probabilistic fault
	// class active simultaneously.
	ceRun(t,
		&chaos.Config{Seed: 91, Drop: 0.02, Dup: 0.05, Reorder: 0.02, Corrupt: 0.02, Reset: 0.01, Jitter: time.Millisecond},
		&chaos.Config{Seed: 92, Drop: 0.02, Dup: 0.05, Reorder: 0.02, Corrupt: 0.02, Reset: 0.01, Jitter: time.Millisecond})
}

// TestChaosFourWorkerConcurrentHeal pins the many-worker healing rule:
// while one slot resumes, a register from another worker whose config
// handshake died on the wire must redo that slot's handshake instead
// of parking a redoable worker and aborting the heal. With four
// workers under bidirectional drop, concurrent startup failures are
// near-certain; the run must still finish bit-identical.
func TestChaosFourWorkerConcurrentHeal(t *testing.T) {
	t.Parallel()
	const lps, horizon = 8, 60.0
	model := ceScn.model
	model.TotalLPs = lps
	c := NewCoordinator(lps, 1.0, horizon, ceScn.seed)
	workers := make([]*Worker, 4)
	for i := range workers {
		workers[i] = NewWorker(2*i, 2*i+1)
		InstallPHOLDModel(workers[i], &model)
	}
	chaosLaunch(t, c, workers, &chaos.Config{Seed: 7, Drop: 0.03}, &chaos.Config{Seed: 7 + 1000003, Drop: 0.03})

	ref := parsim.NewPHOLDModel(model, 1, 1.0, ceScn.seed)
	ref.Run(horizon)
	wantCounts(t, "four-worker chaos run (against fault-free)", c, ref.PerLPEvents())
}

// dropConn discards the frames drop picks, silently, the way a lossy
// network would: one Write is one frame. What internal/chaos draws,
// this scripts by frame kind.
type dropConn struct {
	net.Conn
	drop func(frameKind) bool
}

func (c *dropConn) Write(p []byte) (int, error) {
	var f frame
	var evs []Event
	if unmarshalFrameInto(&f, &evs, p[wireHeaderLen:]) == nil && c.drop(f.Kind) {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// dropListener scripts the coordinator's side of every connection.
type dropListener struct {
	*simListener
	drop func(frameKind) bool
}

func (l dropListener) Accept() (net.Conn, error) {
	conn, err := l.simListener.Accept()
	if err != nil {
		return nil, err
	}
	return &dropConn{conn, l.drop}, nil
}

// firstN returns a drop rule: the first n frames of the given kind.
func firstN(kind frameKind, n int32) func(frameKind) bool {
	var seen atomic.Int32
	return func(k frameKind) bool { return k == kind && seen.Add(1) <= n }
}

// TestStatsSurviveLostHandshakes loses worker B's stats frame and then
// the coordinator's answer to its next two resume attempts. The
// coordinator is alive and still waiting for those stats, so the worker
// has to keep trying on its whole budget: it used to give up after two
// attempts once its stats were out, and leave the coordinator to time
// out into an Incomplete seat with zero counts.
func TestStatsSurviveLostHandshakes(t *testing.T) {
	t.Parallel()
	c := ceScn.coordinator(nil)
	workers := ceScn.pair()
	err := newSim(t).loopback(c, workers, func(ln net.Listener) net.Listener {
		lostStats := firstN(frameStats, 1)
		workers[1].Dial = faulty(func(conn net.Conn) net.Conn { return &dropConn{conn, lostStats} }, simDial(ln))
		return dropListener{ln.(*simListener), firstN(frameResume, 2)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.StatsIncomplete {
		t.Fatalf("stats incomplete after two lost handshakes: %+v", c.WorkerStats)
	}
	wantCounts(t, "run with a lost stats frame", c, ceScn.reference())
	if c.Reconnects < 3 {
		t.Fatalf("%d reconnects; the script lost two resume replies before the one that held", c.Reconnects)
	}
}
