package distsim

import (
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/parsim"
)

// scenario is a six-LP PHOLD run over two workers — A hosts LPs 0-2,
// B LPs 3-5 — that the e2e suites share: the model, the run parameters
// and, when killAt is set, a "test.kill" op worker B schedules on LP 3.
// The op is scheduled in every variant of a run, killed or not, so all
// of them execute the same event sequence; it draws nothing and counts
// as no model event, so the single-process reference needs none.
type scenario struct {
	model       PHOLDModel
	la, horizon float64
	seed        uint64
	killAt      float64
}

var (
	// rtScn is the dense run of the recovery, crash and threads suites:
	// small enough for -race, cross-worker traffic in every window. The
	// kill lands inside window 5; the last barrier before it is t=4.
	rtScn = scenario{PHOLDModel{TotalLPs: 6, JobsPerLP: 6, RemoteProb: 0.4, Work: 5, DelayFactor: 4}, 1, 12, 4242, 4.5}
	// skScn is the sparse regime: a mean delay of 48 windows, so most of
	// the lattice holds no event anywhere in the federation.
	skScn = scenario{PHOLDModel{TotalLPs: 6, JobsPerLP: 2, RemoteProb: 0.5, Work: 3, DelayFactor: 48}, 0.5, 120, 773311, 60.25}
	// mgScn is skewed: LPs 0 and 1 run 4x as often and both start on
	// worker A, so the greedy policy has an imbalance to fix. Worker B
	// never donates its last LP, so the kill op stays where it is;
	// migrations start at the t=2 barrier, before the kill.
	mgScn = scenario{PHOLDModel{TotalLPs: 6, JobsPerLP: 6, RemoteProb: 0.3, Work: 5, DelayFactor: 4, SkewHot: 2, SkewFactor: 4}, 1, 16, 20260808, 4.5}
	// ceScn is the chaos and observability suites' run; nothing dies.
	ceScn = scenario{PHOLDModel{TotalLPs: 6, JobsPerLP: 6, RemoteProb: 0.4, Work: 5, DelayFactor: 4}, 1, 20, 20260806, 0}
)

// coordinator builds the scenario's coordinator and applies tune.
func (s scenario) coordinator(tune func(*Coordinator)) *Coordinator {
	c := NewCoordinator(s.model.TotalLPs, s.la, s.horizon, s.seed)
	if tune != nil {
		tune(c)
	}
	return c
}

// worker builds worker A or B; kill decides whether B's kill op panics
// (a crash mid-window) or is inert.
func (s scenario) worker(b, kill bool) *Worker {
	w := NewWorker(0, 1, 2)
	if b {
		w = NewWorker(3, 4, 5)
	}
	m := s.model
	InstallPHOLDModel(w, &m)
	if b && s.killAt > 0 {
		install := w.Setup
		w.Setup = func(w *Worker) {
			install(w)
			lp := w.LP(3)
			op := lp.E.RegisterOp("test.kill", func([]byte) {
				if kill {
					panic("test: worker killed mid-window")
				}
			})
			lp.E.AtOp(s.killAt, op, nil)
		}
	}
	return w
}

// pair returns workers A and B, nobody killed, each passed through
// every tune in order.
func (s scenario) pair(tune ...func(*Worker) *Worker) []*Worker {
	ws := []*Worker{s.worker(false, false), s.worker(true, false)}
	for _, w := range ws {
		for _, f := range tune {
			f(w)
		}
	}
	return ws
}

// threads is a pair tune: an n-thread pool in the worker.
func threads(n int) func(*Worker) *Worker {
	return func(w *Worker) *Worker { w.Threads = n; return w }
}

// reference is the fault-free single-process run every distributed
// variant must match per LP.
func (s scenario) reference() []uint64 {
	ref := parsim.NewPHOLDModel(s.model, 1, s.la, s.seed)
	ref.Run(s.horizon)
	return ref.PerLPEvents()
}

// windows is the scenario's window lattice: what every run of it walks,
// executing the windows that hold an event and skipping the rest.
func (s scenario) windows() uint64 { return uint64(math.Ceil(s.horizon / s.la)) }

// lattice is the number of lookahead windows a run walked.
func lattice(c *Coordinator) uint64 { return c.Windows + c.WindowsSkipped }

// wantCounts fails the test unless c's per-LP counts are want.
func wantCounts(t *testing.T, what string, c *Coordinator, want []uint64) {
	t.Helper()
	if got := c.PerLPCounts(); !slices.Equal(got, want) {
		t.Fatalf("%s diverges:\nwant %v\ngot  %v", what, want, got)
	}
}

// launch runs the cluster on the scripted clock to completion, failing
// the test on any error.
func launch(t *testing.T, c *Coordinator, workers []*Worker) {
	t.Helper()
	if err := newSim(t).loopback(c, workers, nil); err != nil {
		t.Fatal(err)
	}
}

// chaosLaunch is launch with an injector on either side of the wire:
// coordCfg wraps the listener (coordinator->worker frames are attacked),
// workerCfg each worker's dialed connections, worker i on its own fault
// stream (Seed + i*1000003).
func chaosLaunch(t *testing.T, c *Coordinator, workers []*Worker, coordCfg, workerCfg *chaos.Config) {
	t.Helper()
	if err := newSim(t).loopback(c, workers, chaosWrap(workers, coordCfg, workerCfg, simDial)); err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
}

// chaosWrap is the listener wrap of chaosLaunch; dial gives a worker
// its way to the listener, which the injector then wraps.
func chaosWrap(workers []*Worker, coordCfg, workerCfg *chaos.Config, dial func(net.Listener) func() (net.Conn, error)) func(net.Listener) net.Listener {
	return func(ln net.Listener) net.Listener {
		if workerCfg != nil {
			for i, w := range workers {
				cfg := *workerCfg
				cfg.Seed += uint64(i) * 1000003
				w.Dial = faulty(chaos.New(cfg).Conn, dial(ln))
			}
		}
		if coordCfg == nil {
			return ln
		}
		return chaos.New(*coordCfg).Listener(ln)
	}
}

// simDial and tcpDial are chaosWrap's two ways to a listener.
func simDial(ln net.Listener) func() (net.Conn, error) { return ln.(*simListener).dial }

func tcpDial(ln net.Listener) func() (net.Conn, error) {
	addr := ln.Addr().String()
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// faulty passes every conn dial opens through wrap.
func faulty(wrap func(net.Conn) net.Conn, dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}
}

// listen opens a loopback TCP listener that closes with the test.
func listen(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln, ln.Addr().String()
}

// panics runs f and reports whether it panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// killAndRecover runs c against worker A, a worker B that dies at the
// scenario's killAt, and B's replacement, which dials only once the
// original is dead, like a restarted process would: the in-run
// rollback-recovery drill. c must carry the recovery budget.
func (s scenario) killAndRecover(t *testing.T, c *Coordinator) {
	t.Helper()
	sm := newSim(t)
	ln := sm.listen()
	a, victim, replacement := s.worker(false, false), s.worker(true, true), s.worker(true, false)
	sm.attach(c, a, victim, replacement)
	for _, w := range []*Worker{a, victim, replacement} {
		w.Dial = ln.dial
	}
	err := sm.run(func() error {
		ra := sm.start(func() error { return a.Run("") })
		rb := sm.start(func() error {
			if !panics(func() { _ = victim.Run("") }) {
				return errors.New("kill op never panicked")
			}
			return replacement.Run("")
		})
		if err := c.Serve(ln, 2); err != nil {
			return fmt.Errorf("Serve: %w", err)
		}
		return errors.Join(ra.wait(), rb.wait())
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", c.Recoveries)
	}
}

// failThenResume is the checkpoint-file drill. Attempt 1 persists
// cluster checkpoints with no recovery budget, so worker B's death at
// killAt fails the run and leaves the last checkpoint on disk (its
// ResumePath names the same, still missing file: the fresh-start
// branch). Attempt 2 is a fresh coordinator and fresh workers resuming
// from that file to the horizon. tune configures both coordinators,
// wtune every worker; both coordinators are returned.
func (s scenario) failThenResume(t *testing.T, tune func(*Coordinator), wtune ...func(*Worker) *Worker) (c1, c2 *Coordinator) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.ckpt")
	sm := newSim(t)
	ln := sm.listen()
	c1 = s.coordinator(tune)
	c1.CheckpointPath = path
	c1.ResumePath = path
	doomed := []*Worker{s.worker(false, false), s.worker(true, true)}
	for _, w := range doomed {
		for _, f := range wtune {
			f(w)
		}
		w.Dial = ln.dial
	}
	sm.attach(c1, doomed...)
	err := sm.run(func() error {
		sm.start(func() error { return doomed[0].Run("") }) // dies with the failed run; ignored
		sm.start(func() error { panics(func() { _ = doomed[1].Run("") }); return nil })
		err := c1.Serve(ln, 2)
		ln.Close()
		if err == nil {
			return errors.New("Serve succeeded despite a dead worker and no recovery budget")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	c2 = s.coordinator(tune)
	c2.ResumePath = path
	launch(t, c2, s.pair(wtune...))
	return c1, c2
}
