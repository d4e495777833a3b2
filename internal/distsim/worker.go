package distsim

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/winsync"
)

// ErrCoordinatorLost is returned (wrapped) by Worker.Run when the
// coordinator stays unreachable through the whole retry budget. The
// worker's engines still hold the state of the last quiesced barrier;
// Worker.Stats flushes the final local counters.
var ErrCoordinatorLost = errors.New("distsim: coordinator lost")

// LP is a worker-local logical process.
type LP = winsync.LP

// Worker owns a subset of LPs and executes windows on command from the
// coordinator. A worker survives connection loss: transport failures
// trigger a reconnect with capped exponential backoff and a
// re-adoption handshake, so the simulation state it carries — which
// lives in this process, not in the connection — picks up exactly
// where the wire broke.
type Worker struct {
	// g holds the LPs and runs the windows; it exists once the config
	// frame has brought the lookahead and seed. ids is the LP set
	// NewWorker was given, the worker's identity until then.
	g   *winsync.Group
	ids []int

	session uint64

	// outbox holds the flushed events for LPs of other workers, until
	// the next done frame ships them.
	outbox []Event

	// collectLoads mirrors the config's RebalanceEvery > 0: the
	// coordinator wants per-LP load deltas on every done frame.
	// loadsBuf is the reused report slice.
	collectLoads bool
	loadsBuf     []partition.Load

	link      *link
	statsSent bool
	// timeout is the run's Timeout, from the config frame: the write
	// deadline, and what env.go's table derives the heartbeat spacing
	// and the reply waits from.
	timeout time.Duration
	env     env // nil: the wall clock

	// winSeq is the barrier the engines hold: the newest window executed,
	// or the cut a restore rolled back to. Re-adoption reports it, so a
	// restarted coordinator can tell a worker at its journal's tip from
	// one a window past it (see fill).
	winSeq uint64

	// wire accumulates transport counters across every connection this
	// worker ever dials (shared with each peer; see newWorkerLink).
	wire wireStats
	// obs is what shipping the group's observations takes, nil unless
	// the coordinator's config enables recording (ObsEvery > 0).
	obs *workerObs

	// Dial opens a connection to the coordinator. Worker.Run sets it
	// from its address argument when nil; tests and chaos harnesses
	// preset it to inject faulty transports.
	Dial func() (net.Conn, error)
	// MaxPark is how many reconnect attempts past the first
	// connectAttempts (env.go's table) a worker makes: it holds its
	// engines at the last quiesced barrier and keeps redialing, expecting
	// a crashed coordinator to restart and re-adopt it. Zero means
	// DefaultMaxPark; negative means none, so the worker gives up after
	// connectAttempts.
	MaxPark int

	// Threads is the intra-worker execution pool size: with Threads > 1
	// the worker's LPs may run across that many persistent goroutines
	// inside each window (hierarchical parallelism — distributed across
	// nodes, parallel within them). The value is an upper bound: 0 or 1
	// executes LPs inline on the serve goroutine, and so does a larger
	// pool in every window it has measured to be faster that way
	// (internal/pool). Results are bit-identical for every value
	// (winsync.Group.Flush), so only wall time changes. The model must
	// keep per-LP state independent during a window (mutate shared
	// structures only in Setup / InstallLP, which run at barriers). Set
	// before Run.
	Threads int

	// Setup is called once after the config frame arrives, when
	// engines exist and seeds are known; the model installs OnMessage
	// handlers and initial events here. Checkpointable models schedule
	// via registered ops (des.RegisterOp/ScheduleOp), never closures.
	Setup func(w *Worker)

	// CountEvents optionally reports model-level per-LP counters for
	// the final stats frame.
	CountEvents func() map[int]uint64

	// InstallLP prepares an LP this worker adopts mid-run — through live
	// migration, or a rollback to a checkpoint taken under another
	// assignment — the way Setup prepared the initial ones: OnMessage,
	// the model's registered ops on lp.E, lp.State; but no events, the
	// LP's pending ones arrive with its image. Without it the worker's
	// LPs can be neither donated to nor adopted.
	InstallLP func(lp *LP)
}

// NewWorker creates a worker owning the given LP IDs.
func NewWorker(lpIDs ...int) *Worker {
	if len(lpIDs) == 0 {
		panic("distsim: NewWorker with no LPs")
	}
	ids := slices.Clone(lpIDs)
	slices.Sort(ids)
	if len(slices.Compact(slices.Clone(ids))) != len(ids) {
		panic(fmt.Sprintf("distsim: duplicate LP in %v", lpIDs))
	}
	return &Worker{ids: ids}
}

// WireSnapshot returns the worker's cumulative transport counters —
// every connection it dialed, including handshake and heartbeat
// traffic. Safe to call from any goroutine (a metrics endpoint) while
// the worker runs.
func (w *Worker) WireSnapshot() LinkStats { return w.wire.Snapshot() }

// newWorkerLink wraps a connection with the worker's shared transport
// counters, so stats span reconnects instead of dying with each peer.
func (w *Worker) newWorkerLink(conn net.Conn) *link {
	p := newPeer(w.env, conn)
	p.stats = &w.wire
	return newLink(p)
}

// LP returns the worker-local LP by ID (nil when not owned). LPs exist
// once the config frame has arrived: from Setup on.
func (w *Worker) LP(id int) *LP { return w.g.LP(id) }

// LPs returns the owned LPs in ID order.
func (w *Worker) LPs() []*LP { return w.g.LPs() }

// lpIDs returns the IDs of the LPs the worker owns now, ascending.
func (w *Worker) lpIDs() []int {
	if w.g == nil {
		return w.ids
	}
	return w.g.IDs()
}

// Lookahead returns the configured lookahead (from Setup on).
func (w *Worker) Lookahead() float64 { return w.g.Lookahead() }

// beatSpacing is the heartbeat spacing, which is also how long the worker
// waits for the coordinator's bye after its stats.
func (w *Worker) beatSpacing() time.Duration { return w.timeout / beatsPerTimeout }

func (w *Worker) maxPark() int { return max(0, cmp.Or(w.MaxPark, DefaultMaxPark)) }

// idSeed derives the worker's backoff-jitter seed from its identity
// (the LP set), so each worker of a federation jitters differently but
// deterministically.
func (w *Worker) idSeed() uint64 {
	h := uint64(1469598103934665603)
	for _, id := range w.lpIDs() {
		h ^= uint64(id)
		h *= 1099511628211
	}
	return h
}

// fatalError marks failures no reconnect can fix (model bugs, protocol
// violations); Worker.Run surfaces them instead of retrying.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

func fatalf(format string, args ...any) error {
	return &fatalError{err: fmt.Errorf(format, args...)}
}

func isFatal(err error) bool {
	var fe *fatalError
	return errors.As(err, &fe)
}

// Run connects to the coordinator (retrying, so a worker started
// before its coordinator waits instead of exiting) and serves windows
// until stopped, reconnecting and being re-adopted across transient
// transport failures.
func (w *Worker) Run(addr string) error {
	if w.Dial == nil {
		w.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	w.env = orWall(w.env)
	bo := newBackoff(w.idSeed())
	if err := w.connect(bo); err != nil {
		return err
	}
	defer func() { w.link.close() }()
	defer w.closePool()

	// Serve, re-adopted across transport failures.
	for {
		err := w.serveConn()
		if err == nil || isFatal(err) {
			return err
		}
		// Close the failed connection: the coordinator hears of it now,
		// not at its next deadline, and holds the seat open for the hello.
		w.link.close()
		if err := w.reconnect(bo); err != nil {
			if w.statsSent {
				// The stats frame went out at least once and the
				// coordinator is gone: it finished (or died after the
				// run was decided). Nothing left to retry.
				return nil
			}
			return err
		}
	}
}

// connect is the first connect cycle: dial, register, await the
// config. A refused dial and a lost handshake each cost one of
// connectAttempts attempts, with a backoff pause before the next. A
// lost config frame is retried by registering again on a fresh
// connection — the coordinator treats a duplicate registration for a
// virgin session as a redo.
func (w *Worker) connect(bo *backoff) error {
	for a := 0; ; a++ {
		if a > 0 {
			w.sleep(bo.delay(a - 1))
		}
		conn, err := w.Dial()
		if err == nil {
			l := w.newWorkerLink(conn)
			var cfg *frame
			if cfg, err = w.register(l); err == nil {
				if err = w.applyConfig(cfg); err == nil {
					w.link = l
					return nil
				}
			}
			l.close()
		}
		if isFatal(err) {
			return err
		}
		if a+1 >= connectAttempts {
			return fmt.Errorf("distsim: no coordinator after %d attempts: %w", connectAttempts, err)
		}
	}
}

// register sends the registration frame and waits for the config.
func (w *Worker) register(l *link) (*frame, error) {
	if err := l.p.sendRaw(&frame{Kind: frameRegister, LPs: w.lpIDs()}); err != nil {
		return nil, err
	}
	f, err := l.recv(connectWait)
	if err != nil {
		return nil, err
	}
	if f.Kind != frameConfig {
		// Not fatal: retrying re-registers on a fresh connection and the
		// coordinator redoes the config exchange.
		return nil, fmt.Errorf("distsim: expected config, got %s", f.Kind)
	}
	return f, nil
}

// applyConfig adopts the run parameters and — exactly once — builds
// the LP engines and runs the model Setup hook. The frame is another
// process's word: a lookahead or timeout no worker can run with is
// refused, fatally, before anything is built from it.
func (w *Worker) applyConfig(cfg *frame) error {
	if !(cfg.Lookahead > 0) || math.IsInf(cfg.Lookahead, 1) {
		return fatalf("distsim: config frame lookahead %v is not finite and > 0", cfg.Lookahead)
	}
	if err := checkTimeoutSec(cfg.TimeoutSec); err != nil {
		return &fatalError{err}
	}
	w.session = cfg.Session
	w.timeout = time.Duration(cfg.TimeoutSec * float64(time.Second))
	w.collectLoads = cfg.RebalanceEvery > 0
	if w.g != nil { // built at the first config; a redone handshake changes nothing
		return nil
	}
	if w.Setup == nil {
		return fatalf("distsim: worker has no Setup hook")
	}
	// The group — engines, and the pool that outlives windows,
	// migrations and reconnects — is built once here and stopped when
	// the worker's run ends. The config frame does not carry the
	// cluster's LP count, so an LP ID that is too large is still the
	// coordinator's to refuse; a negative one never leaves Send.
	w.g = winsync.NewGroup(w.ids, math.MaxInt, cfg.Lookahead, cfg.Seed)
	w.g.Install = w.InstallLP
	// Observability: the coordinator's config switches on recording for
	// the whole cluster. The group observes its LPs, pool threads and
	// windows — before Setup, so even initial scheduling is on the
	// record — and the worker ships what it recorded.
	if cfg.ObsEvery > 0 && cfg.ObsSpans > 0 {
		w.obs = &workerObs{every: cfg.ObsEvery}
		w.g.EnableObservability(cfg.ObsSpans)
	}
	// Per-LP wall timing feeds the rebalancer's load signal and the obs
	// per-LP counters; with neither consumer on, a window reads no clock.
	w.g.Timed = w.collectLoads || w.obs != nil
	w.Setup(w)
	if err := w.g.Start(max(1, w.Threads)); err != nil {
		return fatalf("distsim: %v", err)
	}
	// Models may Send during Setup; those flush here like any window's
	// sends, before the first window.
	w.outbox = w.g.Flush(w.outbox)
	return nil
}

// checkTimeoutSec reports a config frame TimeoutSec a worker cannot run
// with: it must be a positive Duration whose third — the heartbeat
// interval — is still positive.
func checkTimeoutSec(sec float64) error {
	ns := sec * float64(time.Second)
	if !(ns > 0 && ns < math.MaxInt64) || time.Duration(ns)/beatsPerTimeout == 0 {
		return fmt.Errorf("distsim: config frame TimeoutSec %v is not finite and > 0 with a positive heartbeat interval", sec)
	}
	return nil
}

// closePool joins the intra-worker pool threads; idempotent, called
// when the worker's run ends.
func (w *Worker) closePool() {
	if w.g != nil {
		w.g.Stop()
	}
}

// PoolStats reports how the intra-worker pool executed the windows so
// far: inline on the serve goroutine or dispatched to its threads. Must
// not be called while the worker is running.
func (w *Worker) PoolStats() pool.Stats { return w.g.PoolStats() }

// snapshot serializes the worker's complete state: the image of every
// LP it owns (winsync), nothing else — counters, model state and the
// undelivered local events are all in the images.
func (w *Worker) snapshot() ([]byte, error) {
	var buf bytes.Buffer
	cw := checkpoint.NewWriter(&buf)
	if err := w.g.WriteSnapshot(cw); err != nil {
		return nil, err
	}
	if err := cw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restore overwrites the worker's state from a snapshot. The
// snapshot's LP set may differ from the worker's current one — live
// migration can move LPs between the checkpointed barrier and a
// rollback — in which case the group drops the LPs the snapshot does
// not cover and adopts the ones it lacks (through InstallLP).
func (w *Worker) restore(data []byte) error {
	snap, err := checkpoint.Read(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := w.g.Restore(snap); err != nil {
		return err
	}
	w.outbox = nil
	return nil
}

// serveConn serves frames on the current connection until a clean
// shutdown (nil) or a failure. Transport and integrity failures are
// retryable via reconnect; fatalError is not.
func (w *Worker) serveConn() error {
	l := w.link
	p := l.p
	p.writeTimeout = w.timeout

	// Heartbeats: while this worker computes (a window, a snapshot), the
	// coordinator only sees silence. A background tick at a third of
	// the coordinator's timeout keeps the connection demonstrably alive,
	// so a slow worker is distinguishable from a dead one. Each beat
	// carries the newest request received and the newest answered, so
	// the coordinator can also tell an alive worker that lost a frame
	// (the same numbers beat after beat) from one that is merely slow,
	// and heal instead of waiting forever. The first beat goes out at
	// once, which also pushes out a readopt a faulty network held back
	// until the worker's next write. The goroutine is bound to this
	// connection's peer: it ends with the connection, and serveConn does
	// not return before it has (a write it may be in is bounded by the
	// write deadline). A fresh one starts after a reconnect.
	stop := w.env.every(w.beatSpacing(), func() bool {
		skipped, err := p.beat(&frame{Kind: frameHeartbeat, RecvSeq: l.seq.Load(), SendSeq: l.done.Load()})
		if err == nil && !skipped {
			l.stats.Heartbeats.Add(1)
		}
		return err == nil // connection gone; the serve loop will notice
	})
	defer stop()

	for {
		// After stats are out, the only thing left is the coordinator's
		// bye: wait for it under a deadline so a lost stats or bye frame
		// is retried through the reconnect path instead of hanging.
		var deadline time.Duration
		if w.statsSent {
			deadline = w.beatSpacing()
		}
		f, err := l.recv(deadline)
		if err != nil {
			return err
		}
		switch f.Kind {
		case frameWindow:
			// Schedule the coordinator's inbound events together with the
			// ones flushed locally at the previous barrier, in the one
			// (From, Seq) order every partition of the LPs agrees on. An
			// observed group times this window's phases itself.
			w.g.Deliver(f.Events)
			// Execute the window — inline or across the persistent pool —
			// then flush the per-LP send buffers: local events to the
			// group's inbox, the rest to the outbox this done frame ships.
			w.g.RunWindow(f.End, f.WinSeq)
			// The done frame piggybacks the earliest pending event time
			// across this worker's engines and inbox, so the coordinator
			// can jump windows nobody has work in. The outbox
			// backing array is reusable once the frame is marshalled (the
			// link keeps the payload, not the events).
			out := w.g.Flush(w.outbox)
			w.outbox = out[:0]
			done := frame{Kind: frameDone, Events: out, Next: w.g.Next()}
			if w.collectLoads {
				w.loadsBuf = w.g.LoadDeltas(w.loadsBuf[:0])
				done.Loads = w.loadsBuf
			}
			if wo := w.obs; wo != nil {
				wo.windows++
				if wo.windows%uint64(wo.every) == 0 {
					done.Obs = w.encodeObs(false)
				}
			}
			w.winSeq = f.WinSeq
			if err := l.send(&done); err != nil {
				return err
			}
		case frameCheckpoint:
			data, err := w.snapshot()
			if err != nil {
				// A snapshot failure is a model bug (closure events), not
				// a crash: report it and keep serving.
				if serr := l.send(&frame{Kind: frameSnapshot, Err: err.Error()}); serr != nil {
					return serr
				}
				continue
			}
			if err := l.send(&frame{Kind: frameSnapshot, Data: data}); err != nil {
				return err
			}
		case frameRestore:
			if err := w.restore(f.Data); err != nil {
				return fatalf("distsim: restore: %v", err)
			}
			w.winSeq = f.WinSeq
			if err := l.send(&frame{Kind: frameRestored}); err != nil {
				return err
			}
		case frameMigrateOut:
			// Donate one LP: extract its state and ship it back. A
			// failure here is a model limitation (e.g. closure events),
			// not a crash — report it and keep serving; the coordinator
			// fails the run with the reason.
			reply := frame{Kind: frameLPState}
			if len(f.LPs) != 1 {
				reply.Err = "migrate-out frame names no LP"
			} else if data, err := w.g.Extract(f.LPs[0]); err != nil {
				reply.Err = err.Error()
			} else {
				reply.Data = data
			}
			if err := l.send(&reply); err != nil {
				return err
			}
		case frameMigrateIn:
			// Adopt one LP mid-run. Failure is fatal: the cluster's
			// assignment bookkeeping already committed to the transfer,
			// so a worker that cannot adopt must drop out and let
			// rollback recovery re-establish a consistent layout.
			if len(f.LPs) != 1 {
				return fatalf("distsim: migrate-in frame names no LP")
			}
			if err := w.g.Adopt(f.Data); err != nil {
				return fatalf("distsim: adopt LP %d: %v", f.LPs[0], err)
			}
			if w.g.LP(f.LPs[0]) == nil {
				return fatalf("distsim: migrate-in frame for LP %d carries another LP's image", f.LPs[0])
			}
			if err := l.send(&frame{Kind: frameMigrated}); err != nil {
				return err
			}
		case frameStop:
			stats := w.Stats()
			stats.Incomplete = false
			final := frame{Kind: frameStats, Stats: stats}
			if w.obs != nil {
				// The final snapshot ships whatever histogram tail the
				// piggyback cadence missed, plus the full trace rings for
				// the merged cluster timeline.
				final.Obs = w.encodeObs(true)
			}
			w.statsSent = true // kept by the link: a re-sent stop is answered with it
			if err := l.send(&final); err != nil {
				return err
			}
		case frameBye:
			return nil
		case frameConfig, frameCoordHello:
			// Handshake retransmissions racing the serve loop: harmless.
		default:
			return fatalf("distsim: unexpected frame %s", f.Kind)
		}
	}
}

// reconnect is the worker's one retry loop after a broken connection:
// each attempt is a resumeOnce, which a live coordinator and a
// restarted one answer alike, by re-adopting the worker. Simulation
// state is untouched — a reconnect is invisible to the model. The
// budget is connectAttempts, to ride out a blip, plus maxPark, during
// which the worker holds its engines at the last quiesced barrier for a
// crashed coordinator to restart from its journal. Like connect, it dials at once — the broken connection is
// closed, so the coordinator's resume window is already open — and
// pauses between attempts (retryPause), never longer than a hello
// waits: a coordinator that opens the window only after serving another
// seat for a while still gets two tries inside it. A fatal error ends
// the loop at any attempt; a spent budget is ErrCoordinatorLost.
func (w *Worker) reconnect(bo *backoff) error {
	budget := connectAttempts + w.maxPark()
	var err error
	for a, refused := 0, 0; a < budget; a++ {
		if a > 0 {
			w.sleep(retryPause(bo, a, w.timeout))
		}
		if err = w.resumeOnce(); err == nil || isFatal(err) {
			return err
		}
		// After stats are out only the coordinator's bye is pending. A
		// listener that is gone means the coordinator finished and exited:
		// two refused dials settle that. A handshake lost on a connection
		// the listener took is a live coordinator, which may still be
		// waiting for the stats, and keeps the whole budget.
		if w.statsSent && errors.Is(err, errDial) {
			if refused++; refused == 2 {
				return err
			}
		}
	}
	return fmt.Errorf("%w: unreachable through %d reconnect attempts (last: %v)", ErrCoordinatorLost, budget, err)
}

// errDial marks a reconnect attempt that found nobody listening.
var errDial = errors.New("distsim: dial failed")

// resumeOnce makes one dial + hello attempt against the coordinator,
// which answers with coord-hello; the worker's readopt carries its LP
// set, the barrier its engines hold and the newest request it answered,
// and the link adopts the connection. The link's numbering and its kept
// reply survive: the coordinator re-sends its request in flight, and one
// already answered is answered again from the kept reply.
func (w *Worker) resumeOnce() error {
	conn, err := w.Dial()
	if err != nil {
		return fmt.Errorf("%w: %w", errDial, err)
	}
	p := newPeer(w.env, conn)
	p.stats = &w.wire
	p.writeTimeout = w.timeout
	var f *frame
	err = p.sendRaw(&frame{Kind: frameHello, Session: w.session, LPs: w.lpIDs()})
	if err == nil {
		f, err = p.recvRaw(resumeWait(w.timeout) / helloTries)
	}
	if err == nil && (f.Kind != frameCoordHello || f.Session != w.session) {
		err = fmt.Errorf("distsim: expected coord-hello for session %d, got %s for %d", w.session, f.Kind, f.Session)
	}
	if err == nil {
		err = p.sendRaw(&frame{Kind: frameReadopt, LPs: w.lpIDs(), WinSeq: w.winSeq, SendSeq: w.link.done.Load()})
	}
	if err != nil {
		p.close()
		return err
	}
	w.wire.Resumes.Add(1)
	w.link.adopt(p)
	return nil
}

// Stats returns the worker's current model-level counters — the same
// numbers the final stats frame carries. Incomplete is set when the
// run never reached its stats exchange, which is how a caller that
// got ErrCoordinatorLost flushes what the worker did accomplish.
func (w *Worker) Stats() WorkerStats {
	stats := WorkerStats{LPs: w.lpIDs(), Incomplete: !w.statsSent}
	if w.g == nil {
		return stats
	}
	for _, lp := range w.g.LPs() {
		stats.EventsExecuted += lp.E.Stats().Executed
		stats.Sent += lp.Sent()
		stats.Received += lp.Received()
	}
	if w.CountEvents != nil {
		stats.PerLPCounts = w.CountEvents()
	}
	return stats
}

// sleep pauses for d, counting the pause into the backoff-time
// transport counter.
func (w *Worker) sleep(d time.Duration) {
	w.wire.BackoffNs.Add(uint64(d))
	w.env.sleep(d)
}
