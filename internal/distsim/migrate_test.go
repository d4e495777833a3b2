package distsim

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/parsim"
	"repro/internal/partition"
)

// The migration end-to-end suite: a skewed PHOLD federation (both hot
// LPs start on worker 0) runs with adaptive partitioning enabled. The
// policy must actually move an LP mid-run, and the finished counts
// must stay bit-identical to the static distributed run and to the
// single-process reference — under clean wire, chaos faults, rollback
// recovery across a migration, and checkpoint file resume into the
// migrated layout.
const (
	mgLPs     = 6
	mgLA      = 1.0
	mgHorizon = 16.0
	mgJobs    = 6
	mgRemote  = 0.3
	mgWork    = 5
	mgSeed    = 20260808
	mgSkewHot = 2   // LPs 0 and 1 are hot
	mgSkew    = 4.0 // they run 4x as often
	mgKillAt  = 4.5 // inside window 5; migrations start at the t=2 barrier
)

// mgPolicy builds the deterministic test policy: event-count weights
// (busy-ns is wall-clock noisy) and the default hysteresis band.
func mgPolicy() partition.Policy { return &partition.Greedy{UseEvents: true} }

// mgWorker builds one of the two skewed PHOLD workers; worker 0 hosts
// both hot LPs, so the greedy policy has an imbalance to fix. kill
// arms a panic at mgKillAt on LP 3 (worker 1, which never donates its
// last LP), mirroring the recovery suite's crash scenario; the op is
// scheduled in every variant so all runs share one event sequence.
func mgWorker(b bool, kill bool) *Worker {
	var w *Worker
	if b {
		w = NewWorker(3, 4, 5)
	} else {
		w = NewWorker(0, 1, 2)
	}
	InstallPHOLDSkew(w, mgLPs, mgJobs, mgRemote, mgWork, 4, mgSkewHot, mgSkew, 0)
	if b {
		orig := w.Setup
		w.Setup = func(w *Worker) {
			orig(w)
			lp := w.LP(3)
			op := lp.E.RegisterOp("test.kill", func([]byte) {
				if kill {
					panic("test: worker killed mid-window")
				}
			})
			lp.E.AtOp(mgKillAt, op, nil)
		}
	}
	return w
}

var mgRefOnce sync.Once
var mgRefCounts []uint64

// mgReference is the single-process skewed reference.
func mgReference() []uint64 {
	mgRefOnce.Do(func() {
		ref := parsim.NewPHOLDSkew(mgLPs, 1, mgLA, mgJobs, mgRemote, mgWork, mgSeed, 4, mgSkewHot, mgSkew)
		ref.Run(mgHorizon)
		mgRefCounts = ref.PerLPEvents()
	})
	return mgRefCounts
}

func mgCounts(stats []WorkerStats) []uint64 {
	got := make([]uint64, mgLPs)
	for _, ws := range stats {
		for lp, n := range ws.PerLPCounts {
			got[lp] = n
		}
	}
	return got
}

// TestRebalanceBitIdentical is the core output-invariance property:
// the rebalanced run migrates at least one LP, yet its per-LP counts
// match both the static distributed run and the single-process
// reference bit for bit.
func TestRebalanceBitIdentical(t *testing.T) {
	static := NewCoordinator(mgLPs, mgLA, mgHorizon, mgSeed)
	launch(t, static, []*Worker{mgWorker(false, false), mgWorker(true, false)})
	staticCounts := mgCounts(static.WorkerStats)
	if !equalCounts(staticCounts, mgReference()) {
		t.Fatalf("static distributed run diverges from reference:\nwant %v\ngot  %v", mgReference(), staticCounts)
	}

	c := NewCoordinator(mgLPs, mgLA, mgHorizon, mgSeed)
	c.Rebalance = mgPolicy()
	c.RebalanceEvery = 2
	launch(t, c, []*Worker{mgWorker(false, false), mgWorker(true, false)})

	if c.Migrations == 0 {
		t.Fatal("skewed run rebalanced nothing; the scenario no longer exercises migration")
	}
	if got := mgCounts(c.WorkerStats); !equalCounts(got, staticCounts) {
		t.Fatalf("rebalanced run diverges from static run:\nwant %v\ngot  %v", staticCounts, got)
	}
	// The final stats must reflect a live assignment that still
	// partitions the LP space (the exact layout depends on how the job
	// population drifted, so only the invariant is asserted).
	if len(c.WorkerStats[0].LPs)+len(c.WorkerStats[1].LPs) != mgLPs {
		t.Fatalf("final LP sets %v + %v do not partition %d LPs", c.WorkerStats[0].LPs, c.WorkerStats[1].LPs, mgLPs)
	}
}

// TestRebalanceUnderChaos injects resets and duplicates into both
// directions of the wire while the rebalancer is migrating LPs: the
// migration frames are sequenced like any other, so session resume
// replays them and the counts still match the reference.
func TestRebalanceUnderChaos(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	addr := base.Addr().String()
	ln := chaos.New(chaos.Config{Seed: 81, Reset: 0.03, Dup: 0.05}).Listener(base)

	c := NewCoordinator(mgLPs, mgLA, mgHorizon, mgSeed)
	c.Rebalance = mgPolicy()
	c.RebalanceEvery = 2
	c.Timeout = 500 * time.Millisecond
	c.ReconnectWait = 3 * time.Second
	c.MaxReconnects = 10000

	workers := []*Worker{mgWorker(false, false), mgWorker(true, false)}
	errs := make(chan error, len(workers)+1)
	for i, w := range workers {
		w.HandshakeTimeout = 2 * time.Second
		w.ConnectRetries = 100
		w.ConnectBackoff = 10 * time.Millisecond
		inj := chaos.New(chaos.Config{Seed: 82 + uint64(i)*1000003, Reset: 0.03, Dup: 0.05})
		w.Dial = func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.Conn(conn), nil
		}
		w := w
		go func() { errs <- w.Run(addr) }()
	}
	go func() { errs <- c.Serve(ln, len(workers)) }()
	for i := 0; i < len(workers)+1; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("chaos rebalance run failed: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("chaos rebalance run wedged")
		}
	}
	if c.Migrations == 0 {
		t.Fatal("chaos run rebalanced nothing")
	}
	if got := mgCounts(c.WorkerStats); !equalCounts(got, mgReference()) {
		t.Fatalf("chaos rebalanced run diverges from reference:\nwant %v\ngot  %v", mgReference(), got)
	}
}

// TestRebalanceRecoveryAcrossMigration kills a worker well after the
// first migration: rollback restores the checkpointed (migrated)
// assignment on every worker — the replacement registers its static
// LP set and restore reconciles it — and the finished counts match
// the reference.
func TestRebalanceRecoveryAcrossMigration(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	c := NewCoordinator(mgLPs, mgLA, mgHorizon, mgSeed)
	c.Rebalance = mgPolicy()
	c.RebalanceEvery = 2
	c.Timeout = 10 * time.Second
	c.CheckpointEvery = 1
	c.MaxRecoveries = 1

	errs := make(chan error, 3)
	killed := make(chan struct{})
	go func() { errs <- mgWorker(false, false).Run(addr) }()
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("kill op never panicked")
			}
			close(killed)
		}()
		_ = mgWorker(true, true).Run(addr) // dies at mgKillAt
	}()
	go func() {
		<-killed
		errs <- mgWorker(true, false).Run(addr)
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- c.Serve(ln, 2) }()

	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if c.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", c.Recoveries)
	}
	if c.Migrations == 0 {
		t.Fatal("recovery run rebalanced nothing before the kill")
	}
	if got := mgCounts(c.WorkerStats); !equalCounts(got, mgReference()) {
		t.Fatalf("recovered rebalanced run diverges from reference:\nwant %v\ngot  %v", mgReference(), got)
	}
}

// TestRebalanceFileResumeAcrossMigration crashes the whole run after a
// migration, then resumes a fresh coordinator and fresh statically
// configured workers from the persisted checkpoint: the checkpoint
// recorded the migrated assignment, matchSeat seats the static
// workers anyway, and restore hands each one the LP set the layout
// says it should own.
func TestRebalanceFileResumeAcrossMigration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.ckpt")

	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCoordinator(mgLPs, mgLA, mgHorizon, mgSeed)
	c1.Rebalance = mgPolicy()
	c1.RebalanceEvery = 2
	c1.Timeout = 10 * time.Second
	c1.ReconnectWait = 200 * time.Millisecond // the killed worker is gone for good
	c1.CheckpointPath = path
	c1.ResumePath = path // does not exist yet: fresh start
	go func() {
		wA := mgWorker(false, false)
		wA.ConnectRetries = 2
		wA.ConnectBackoff = 20 * time.Millisecond
		_ = wA.Run(ln1.Addr().String()) // dies with the failed run; ignored
	}()
	go func() {
		defer func() { recover() }()
		_ = mgWorker(true, true).Run(ln1.Addr().String())
	}()
	if err := c1.Serve(ln1, 2); err == nil {
		t.Fatal("Serve succeeded despite a dead worker and no recovery budget")
	}
	ln1.Close()
	if c1.Migrations == 0 {
		t.Fatal("first attempt rebalanced nothing before the crash")
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	c2 := NewCoordinator(mgLPs, mgLA, mgHorizon, mgSeed)
	c2.Rebalance = mgPolicy()
	c2.RebalanceEvery = 2
	c2.Timeout = 10 * time.Second
	c2.ResumePath = path
	errs := make(chan error, 2)
	go func() { errs <- mgWorker(false, false).Run(ln2.Addr().String()) }()
	go func() { errs <- mgWorker(true, false).Run(ln2.Addr().String()) }()
	if err := c2.Serve(ln2, 2); err != nil {
		t.Fatalf("resumed Serve: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if got := mgCounts(c2.WorkerStats); !equalCounts(got, mgReference()) {
		t.Fatalf("resumed rebalanced run diverges from reference:\nwant %v\ngot  %v", mgReference(), got)
	}
}
