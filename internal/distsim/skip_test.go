package distsim

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/parsim"
)

// The window-skipping suite runs PHOLD in the sparse-traffic regime —
// mean event spacing of skFactor lookaheads, so the vast majority of
// lookahead windows contain no event anywhere in the federation — and
// pins the skipping contract: a skip-enabled run is bit-identical to a
// skip-disabled run and to the single-process reference, it skips the
// windows the others execute emptily, and the property survives chaos
// faults and a checkpoint→resume across a skipped gap.
const (
	skLPs     = 6
	skLA      = 0.5
	skHorizon = 120.0
	skJobs    = 2
	skRemote  = 0.5
	skWork    = 3
	skFactor  = 48.0 // mean delay 24 time units = 48 windows
	skSeed    = 773311
	skKillAt  = 60.25
)

// skWorker builds one of the two sparse PHOLD workers. Worker B (LPs
// 3-5) also schedules a "test.kill" op at skKillAt on LP 3 — inert
// unless kill is set, and scheduled in every variant so all runs
// execute the same event sequence (see rtWorker).
func skWorker(b bool, kill bool) *Worker {
	var w *Worker
	if b {
		w = NewWorker(3, 4, 5)
	} else {
		w = NewWorker(0, 1, 2)
	}
	InstallPHOLDFactor(w, skLPs, skJobs, skRemote, skWork, skFactor)
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
			lp.E.AtOp(skKillAt, op, nil)
		}
	}
	return w
}

// skRun launches a sparse distributed run and returns the coordinator.
func skRun(t *testing.T, skip bool) *Coordinator {
	t.Helper()
	c := NewCoordinator(skLPs, skLA, skHorizon, skSeed)
	c.SkipIdle = skip
	launch(t, c, []*Worker{skWorker(false, false), skWorker(true, false)})
	return c
}

// skCounts flattens per-worker model counts into a per-LP slice.
func skCounts(stats []WorkerStats) []uint64 {
	got := make([]uint64, skLPs)
	for _, ws := range stats {
		for lp, n := range ws.PerLPCounts {
			got[lp] = n
		}
	}
	return got
}

// TestSparseSkipBitIdentical is the core skipping property: on sparse
// traffic the skip-enabled distributed run skips most of the window
// lattice yet produces per-LP counts bit-identical to the skip-disabled
// run and to the single-process parsim reference, and the executed and
// skipped windows sum to exactly the fixed lattice.
func TestSparseSkipBitIdentical(t *testing.T) {
	ref := parsim.NewPHOLDFactor(skLPs, 1, skLA, skJobs, skRemote, skWork, skSeed, skFactor)
	ref.Run(skHorizon)
	want := ref.PerLPEvents()

	off := skRun(t, false)
	on := skRun(t, true)

	offCounts, onCounts := skCounts(off.WorkerStats), skCounts(on.WorkerStats)
	for i := range want {
		if offCounts[i] != want[i] {
			t.Fatalf("LP %d: skip-off %d events vs reference %d\nwant %v\ngot  %v",
				i, offCounts[i], want[i], want, offCounts)
		}
		if onCounts[i] != want[i] {
			t.Fatalf("LP %d: skip-on %d events vs reference %d\nwant %v\ngot  %v",
				i, onCounts[i], want[i], want, onCounts)
		}
	}
	if on.WindowsSkipped == 0 {
		t.Fatal("sparse run skipped no windows")
	}
	if off.WindowsSkipped != 0 {
		t.Fatalf("skip-off run reports %d skipped windows", off.WindowsSkipped)
	}
	if on.Windows+on.WindowsSkipped != off.Windows {
		t.Fatalf("executed %d + skipped %d != lattice %d",
			on.Windows, on.WindowsSkipped, off.Windows)
	}
	if on.Windows >= off.Windows/2 {
		t.Fatalf("sparse run executed %d of %d windows — skipping barely engaged",
			on.Windows, off.Windows)
	}
	if on.EventsRouted != off.EventsRouted {
		t.Fatalf("events routed: skip-on %d vs skip-off %d", on.EventsRouted, off.EventsRouted)
	}
}

// TestSparseSkipUnderChaos runs the skip-enabled sparse federation
// against a faulty network (drops, duplicates, resets on both
// directions of the wire): skipping must compose with integrity
// checking and session resume without costing bit-identity.
func TestSparseSkipUnderChaos(t *testing.T) {
	t.Parallel()
	ref := parsim.NewPHOLDFactor(skLPs, 1, skLA, skJobs, skRemote, skWork, skSeed, skFactor)
	ref.Run(skHorizon)
	want := ref.PerLPEvents()

	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	addr := base.Addr().String()
	ln := chaos.New(chaos.Config{Seed: 101, Drop: 0.03, Dup: 0.1, Reset: 0.02}).Listener(base)

	c := NewCoordinator(skLPs, skLA, skHorizon, skSeed)
	c.SkipIdle = true
	c.Timeout = 500 * time.Millisecond
	c.ReconnectWait = 3 * time.Second
	c.MaxReconnects = 10000

	workers := []*Worker{skWorker(false, false), skWorker(true, false)}
	for i, w := range workers {
		w.HandshakeTimeout = 2 * time.Second
		w.ConnectRetries = 100
		w.ConnectBackoff = 10 * time.Millisecond
		inj := chaos.New(chaos.Config{Seed: 201 + uint64(i)*1000003, Drop: 0.03, Dup: 0.1, Reset: 0.02})
		w.Dial = func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.Conn(conn), nil
		}
	}

	errs := make(chan error, len(workers)+1)
	for _, w := range workers {
		w := w
		go func() { errs <- w.Run(addr) }()
	}
	go func() { errs <- c.Serve(ln, len(workers)) }()
	for i := 0; i < len(workers)+1; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("chaos skip run failed: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("chaos skip run wedged")
		}
	}

	got := skCounts(c.WorkerStats)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LP %d: chaos skip run %d events vs reference %d\nwant %v\ngot  %v",
				i, got[i], want[i], want, got)
		}
	}
	if c.WindowsSkipped == 0 {
		t.Fatal("chaos skip run skipped no windows")
	}
}

// TestSkipCheckpointResumeAcrossGap kills a worker mid-run with
// recovery disabled, leaving the persisted cluster checkpoint at the
// last executed barrier — which, in the sparse regime, sits right
// before skipped gaps. A second coordinator resumes from the file with
// skipping still enabled, jumps the gaps again, and finishes with
// counts identical to the uninterrupted run.
func TestSkipCheckpointResumeAcrossGap(t *testing.T) {
	off := skRun(t, false)
	want := skCounts(off.WorkerStats)
	path := filepath.Join(t.TempDir(), "cluster.ckpt")

	// Attempt 1: persist checkpoints, no recovery budget; worker B dies
	// at skKillAt and the run fails.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCoordinator(skLPs, skLA, skHorizon, skSeed)
	c1.SkipIdle = true
	c1.Timeout = 10 * time.Second
	c1.ReconnectWait = 200 * time.Millisecond
	c1.CheckpointPath = path
	c1.ResumePath = path // does not exist yet: fresh start
	go func() {
		wA := skWorker(false, false)
		wA.ConnectRetries = 2
		wA.ConnectBackoff = 20 * time.Millisecond
		_ = wA.Run(ln1.Addr().String()) // dies with the failed run; ignored
	}()
	go func() {
		defer func() { recover() }()
		_ = skWorker(true, true).Run(ln1.Addr().String())
	}()
	if err := c1.Serve(ln1, 2); err == nil {
		t.Fatal("Serve succeeded despite a dead worker and no recovery budget")
	}
	ln1.Close()
	if c1.WindowsSkipped == 0 {
		t.Fatal("first attempt skipped no windows before the crash")
	}

	// Attempt 2: resume from the checkpoint, still skipping.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	c2 := NewCoordinator(skLPs, skLA, skHorizon, skSeed)
	c2.SkipIdle = true
	c2.Timeout = 10 * time.Second
	c2.ResumePath = path
	errs := make(chan error, 2)
	go func() { errs <- skWorker(false, false).Run(ln2.Addr().String()) }()
	go func() { errs <- skWorker(true, false).Run(ln2.Addr().String()) }()
	if err := c2.Serve(ln2, 2); err != nil {
		t.Fatalf("resumed Serve: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if got := skCounts(c2.WorkerStats); !equalCounts(got, want) {
		t.Fatalf("resumed skip run counts %v, want %v", got, want)
	}
	if c2.WindowsSkipped == 0 {
		t.Fatal("resumed run skipped no windows after the gap")
	}
	// The cut carries the skip counter, so the resumed run still accounts
	// for every window of the lattice exactly once.
	if c2.Windows+c2.WindowsSkipped != off.Windows {
		t.Fatalf("resumed run executed %d + skipped %d != lattice %d", c2.Windows, c2.WindowsSkipped, off.Windows)
	}
}

// TestSkipRecoveryKeepsLattice kills a worker of a skipping run and
// recovers it in-run: the rollback reinstates the skip counter with the
// rest of the cut, so windows skipped between the checkpoint and the
// crash are not counted a second time when the run passes them again.
func TestSkipRecoveryKeepsLattice(t *testing.T) {
	off := skRun(t, false)
	want := skCounts(off.WorkerStats)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	c := NewCoordinator(skLPs, skLA, skHorizon, skSeed)
	c.SkipIdle = true
	c.Timeout = 10 * time.Second
	c.CheckpointEvery = 4 // several skipped stretches between a cut and the crash
	c.MaxRecoveries = 1

	errs := make(chan error, 2)
	killed := make(chan struct{})
	go func() { errs <- skWorker(false, false).Run(addr) }()
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("kill op never panicked")
			}
			close(killed)
		}()
		_ = skWorker(true, true).Run(addr) // dies at skKillAt
	}()
	go func() {
		<-killed
		errs <- skWorker(true, false).Run(addr)
	}()
	if err := c.Serve(ln, 2); err != nil {
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
	if got := skCounts(c.WorkerStats); !equalCounts(got, want) {
		t.Fatalf("recovered skip run counts %v, want %v", got, want)
	}
	if c.Windows+c.WindowsSkipped != off.Windows {
		t.Fatalf("recovered run executed %d + skipped %d != lattice %d", c.Windows, c.WindowsSkipped, off.Windows)
	}
}
