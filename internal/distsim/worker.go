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
	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/winsync"
)

// ErrCoordinatorLost is returned (wrapped) by Worker.Run when the
// coordinator stays unreachable through the whole park budget. The
// worker's engines still hold the state of the last quiesced barrier;
// Worker.Stats flushes the final local counters.
var ErrCoordinatorLost = errors.New("distsim: coordinator lost")

// LP is a worker-local logical process.
type LP = winsync.LP

// Worker owns a subset of LPs and executes windows on command from the
// coordinator. A worker survives connection loss: transport failures
// trigger a reconnect with capped exponential backoff and a
// session-resume handshake, so the simulation state it carries — which
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

	// lastWinSeq is the barrier sequence of the newest window this
	// worker executed; doneEvents/doneData/doneLoads/doneNext retain a
	// deep copy of that window's done frame. A restarted coordinator
	// resumes from its journal tip, which may trail the worker by
	// exactly one window (the barrier record becomes durable before the
	// next fan-out): when a re-sent window's WinSeq matches lastWinSeq
	// the worker replays the stash instead of re-executing — the
	// engines already hold the post-window state.
	lastWinSeq uint64
	doneEvents []Event
	doneData   []byte // arena behind doneEvents' Data slices
	doneLoads  []partition.Load
	doneNext   float64

	// wire accumulates transport counters across every connection this
	// worker ever dials (shared with each peer; see newWorkerLink).
	wire WireStats
	// obs is the worker-side recording state, nil unless enabled by the
	// coordinator's config (ObsEvery > 0).
	obs *workerObs

	// Dial opens a connection to the coordinator. Worker.Run sets it
	// from its address argument when nil; tests and chaos harnesses
	// preset it to inject faulty transports.
	Dial func() (net.Conn, error)
	// MaxPark bounds the parked reconnect rounds after a reconnect
	// cycle (env.go's table) failed: a worker with live engine state holds
	// position at the last quiesced barrier and keeps redialing,
	// expecting a crashed coordinator to restart and re-adopt it. Zero
	// means DefaultMaxPark; negative disables parking (the first
	// exhausted reconnect is fatal, the pre-journal behavior).
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

// byeWait is how long the worker waits for the coordinator's bye after
// its stats: one heartbeat spacing.
func (w *Worker) byeWait() time.Duration {
	if w.timeout > 0 {
		return w.timeout / beatsPerTimeout
	}
	return connectWait
}

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
// until stopped, reconnecting with session resume across transient
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
	defer func() { w.link.close() }() // a re-adoption replaces w.link
	defer w.closePool()

	// Serve, resuming the session across transport failures.
	for {
		err := w.serveConn()
		if err == nil {
			return nil
		}
		if isFatal(err) {
			return err
		}
		// Close the failed connection: the coordinator hears of it now,
		// not at its next deadline, and holds the seat open for the hello.
		w.link.close()
		if rerr := w.reconnect(bo); rerr != nil {
			if w.statsSent {
				// The stats frame went out at least once and the
				// coordinator is gone: it finished (or died after the
				// run was decided). Nothing left to retry.
				return nil
			}
			if isFatal(rerr) {
				return rerr
			}
			// The reconnect budget is spent, but the state this worker
			// carries is irreplaceable mid-run: park and keep redialing
			// on the chance the coordinator crashed and is restarting
			// from its journal to re-adopt us.
			if w.g != nil && w.maxPark() > 0 {
				if perr := w.park(bo); perr == nil {
					continue
				}
				return fmt.Errorf("%w: unreachable through %d parked reconnect attempts (last: %v)",
					ErrCoordinatorLost, w.maxPark(), rerr)
			}
			return fmt.Errorf("distsim: reconnect failed: %w (after %v)", rerr, err)
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
	if err := l.send(&frame{Kind: frameRegister, LPs: w.lpIDs()}); err != nil {
		return nil, err
	}
	f, err := l.recv(connectWait)
	if err != nil {
		return nil, err
	}
	if f.Kind != frameConfig {
		// Not fatal: under a faulty network this can be a window frame
		// replayed for a previous incarnation of the handshake. Retrying
		// re-registers on a fresh connection and the coordinator redoes
		// the config exchange.
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
	w.g = winsync.NewGroup(w.ids, math.MaxInt, cfg.Lookahead, cfg.Seed, eventq.KindHeap)
	w.g.Install = w.InstallLP
	// Observability: the coordinator's config switches on recording for
	// the whole cluster. The group observes its LPs and pool threads —
	// before Setup, so even initial scheduling is on the record — and
	// the worker keeps what is about the wire.
	if cfg.ObsEvery > 0 && cfg.ObsSpans > 0 {
		w.obs = newWorkerObs(cfg.ObsEvery, cfg.ObsSpans)
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
// with: it must be finite, >= 0, a Duration and, when positive, give a
// write deadline whose third — the heartbeat interval — is still
// positive.
func checkTimeoutSec(sec float64) error {
	ns := sec * float64(time.Second)
	if !(ns >= 0 && ns < math.MaxInt64) || ns > 0 && time.Duration(ns)/beatsPerTimeout == 0 {
		return fmt.Errorf("distsim: config frame TimeoutSec %v is not finite and >= 0 with a positive heartbeat interval", sec)
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
	// The stashed done frame described the pre-rollback timeline; after
	// a restore the engines no longer match it, and the window anchor
	// must not collide with a re-sent post-rollback window.
	w.clearStash()
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
	// carries the worker's progress watermarks — its processed-inbound
	// ack and its sequenced-send count — so the coordinator can also
	// tell an alive worker that lost a frame (stale watermarks beat
	// after beat) from one that is merely slow, and force a resume
	// instead of waiting forever. The goroutine is bound to this
	// connection's peer: it ends with the connection, and serveConn does
	// not return before it has (a write it may be in is bounded by the
	// write deadline). A fresh one starts after a reconnect.
	if w.timeout > 0 {
		stop := w.env.every(w.timeout/beatsPerTimeout, func() bool {
			skipped, err := p.beat(&frame{Kind: frameHeartbeat, SendSeq: l.sentOut.Load()}, l.ackedIn.Load())
			if err == nil && !skipped {
				l.stats.Heartbeats.Add(1)
			}
			return err == nil // connection gone; the serve loop will notice
		})
		defer stop()
	}

	for {
		// After stats are out, the only thing left is the coordinator's
		// bye: wait for it under a deadline so a lost stats or bye frame
		// is retried through the reconnect path instead of hanging.
		var deadline time.Duration
		if w.statsSent {
			deadline = w.byeWait()
		}
		f, err := l.recv(deadline)
		if err != nil {
			return err
		}
		switch f.Kind {
		case frameWindow:
			if f.WinSeq != 0 && f.WinSeq == w.lastWinSeq {
				// A restarted coordinator re-sent the newest window this
				// worker already executed: its journal commits each
				// barrier before the next fan-out, so its tip can trail
				// the cluster by exactly one window. The engines already
				// hold the post-window state — replay the stashed done
				// frame instead of delivering or executing anything.
				done := frame{Kind: frameDone, Events: w.doneEvents, Next: w.doneNext}
				if w.collectLoads {
					done.Loads = w.doneLoads
				}
				if err := l.send(&done); err != nil {
					return err
				}
				continue
			}
			// Observability bookkeeping brackets the window: close the
			// barrier-wait span opened when the previous done frame went
			// out, time the deliver merge, and record the whole busy
			// stretch with the frame's barrier sequence as the anchor
			// MergeTracks aligns on. All nil-guarded: with obs off this
			// case costs one pointer test.
			var t0 int64
			if wo := w.obs; wo != nil {
				t0 = obs.Now()
				if wo.waitStart != 0 {
					wo.barrierWait.Observe(t0 - wo.waitStart)
					wo.rec.Record(obs.Span{Wall: wo.waitStart, Dur: t0 - wo.waitStart,
						Time: f.End, Seq: f.WinSeq, Kind: obs.KindBarrierWait})
					wo.waitStart = 0
				}
			}
			// Schedule the coordinator's inbound events together with the
			// ones flushed locally at the previous barrier, in the one
			// (From, Seq) order every partition of the LPs agrees on.
			w.g.Deliver(f.Events)
			if wo := w.obs; wo != nil {
				d := obs.Now() - t0
				wo.deliver.Observe(d)
				wo.rec.Record(obs.Span{Wall: t0, Dur: d, Time: f.End, Seq: f.WinSeq, Kind: obs.KindDeliver})
			}
			// Execute the window — inline or across the persistent pool —
			// then flush the per-LP send buffers: local events to the
			// group's inbox, the rest to the outbox this done frame ships.
			w.g.RunWindow(f.End, f.WinSeq)
			// The done frame piggybacks the earliest pending event time
			// across this worker's engines and inbox, so the coordinator
			// can jump windows nobody has work in. The outbox
			// backing array is reusable once the frame is marshalled (the
			// send retains the payload, not the events).
			out := w.g.Flush(w.outbox)
			w.outbox = out[:0]
			done := frame{Kind: frameDone, Events: out, Next: w.g.Next()}
			if w.collectLoads {
				w.loadsBuf = w.g.LoadDeltas(w.loadsBuf[:0])
				done.Loads = w.loadsBuf
			}
			if wo := w.obs; wo != nil {
				now := obs.Now()
				wo.rec.Record(obs.Span{Wall: t0, Dur: now - t0, Time: f.End, Seq: f.WinSeq, Kind: obs.KindWindowBusy})
				wo.windows++
				if wo.windows%uint64(wo.every) == 0 {
					done.Obs = w.encodeObs(false)
				}
			}
			// Stash the done frame (before the send, so a send that dies
			// mid-flight still leaves it replayable) for a restarted
			// coordinator whose journal trails this window by one. Obs
			// piggyback bytes are telemetry, not simulation state — they
			// are not worth retaining.
			w.lastWinSeq = f.WinSeq
			w.stashDone(done.Events, done.Next, done.Loads)
			if err := l.send(&done); err != nil {
				return err
			}
			if wo := w.obs; wo != nil {
				wo.waitStart = obs.Now()
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
			if err := l.send(&final); err != nil {
				w.statsSent = true // retained; a reconnect replays it
				return err
			}
			w.statsSent = true
		case frameBye:
			return nil
		case frameConfig, frameResume:
			// Handshake retransmissions racing the serve loop: harmless.
		default:
			return fatalf("distsim: unexpected frame %s", f.Kind)
		}
	}
}

// reconnect re-dials the coordinator and resumes the session: it
// presents the session id and its receive watermark, and on acceptance
// the link replays every retained frame the coordinator has not
// processed. Simulation state is untouched — a reconnect is invisible
// to the model. Like connect, it dials at once — the broken connection
// is closed, so the coordinator's resume window is already open — and
// pauses between attempts.
func (w *Worker) reconnect(bo *backoff) error {
	var lastErr error
	for a, refused := 0, 0; a < connectAttempts && refused < 2; a++ {
		if a > 0 {
			w.sleep(bo.delay(a - 1))
		}
		if lastErr = w.resumeOnce(); lastErr == nil || isFatal(lastErr) {
			break
		}
		// After stats are out only the coordinator's bye is pending. A
		// listener that is gone means the coordinator finished and exited:
		// two refused dials settle that. A handshake lost on a connection
		// the listener took is a live coordinator, which may still be
		// waiting for the stats replay, and keeps the whole budget.
		if w.statsSent && errors.Is(lastErr, errDial) {
			refused++
		}
	}
	return lastErr
}

// errDial marks a resume attempt that found nobody listening.
var errDial = errors.New("distsim: dial failed")

// resumeOnce makes one dial + hello attempt against the coordinator.
// A live coordinator answers with resume (rebind the existing link,
// replaying its retained frames); a restarted one answers with
// coord-hello, switching into the re-adoption handshake.
func (w *Worker) resumeOnce() error {
	conn, err := w.Dial()
	if err != nil {
		return fmt.Errorf("%w: %w", errDial, err)
	}
	p := newPeer(w.env, conn)
	p.stats = &w.wire
	p.writeTimeout = w.timeout
	hello := &frame{Kind: frameHello, Session: w.session, RecvSeq: w.link.recvSeq, LPs: w.lpIDs()}
	if err := p.sendRaw(hello, w.link.recvSeq); err != nil {
		p.close()
		return err
	}
	f, seq, err := p.recvRaw(resumeWait(w.timeout) / helloTries)
	if err != nil {
		p.close()
		return err
	}
	switch {
	case seq == 0 && f.Kind == frameResume:
		if err := w.link.rebind(p, f.RecvSeq); err != nil {
			p.close()
			return err
		}
	case seq == 0 && f.Kind == frameCoordHello:
		if f.Session != w.session {
			p.close()
			return fmt.Errorf("distsim: coord-hello for session %d, have %d", f.Session, w.session)
		}
		if err := w.readopt(p); err != nil {
			return err
		}
	default:
		p.close()
		return fmt.Errorf("distsim: expected resume, got %s", f.Kind)
	}
	if wo := w.obs; wo != nil {
		wo.rec.Record(obs.Span{Wall: obs.Now(), Kind: obs.KindResume})
	}
	return nil
}

// readopt completes the re-adoption handshake with a restarted
// coordinator. The old link's sequence space (and the frames it
// retained for replay) died with the old process, so both sides start
// over on a fresh link; everything the retained frames would have
// replayed is re-derivable — the coordinator re-sends the current
// window from its journaled pending set, and the worker answers a
// window it already executed from its stashed done frame.
func (w *Worker) readopt(p *peer) error {
	reply := &frame{Kind: frameReadopt, LPs: w.lpIDs(), WinSeq: w.lastWinSeq, Next: w.g.Next()}
	if err := p.sendRaw(reply, 0); err != nil {
		p.close()
		return err
	}
	w.link.close()
	w.link = newLink(p)
	return nil
}

// park holds the worker in place after the reconnect budget failed:
// engines keep the state of the last quiesced barrier while the
// worker redials with capped backoff, up to maxPark rounds, waiting
// for a restarted coordinator. Returns nil once a handshake lands.
func (w *Worker) park(bo *backoff) error {
	limit := w.maxPark()
	for a := 0; a < limit; a++ {
		// Cap the backoff exponent: parking is an open-ended wait for a
		// process restart, not congestion control, so a bounded
		// per-round delay keeps re-adoption latency predictable.
		w.sleep(bo.delay(min(a, parkStep)))
		if err := w.resumeOnce(); err == nil {
			return nil
		}
	}
	return ErrCoordinatorLost
}

// stashDone deep-copies one window's done frame into the worker's
// reused stash arena. The source slices (outbox backing array, load
// report buffer, model-owned event payloads) are all reused or
// mutated by the next window, so the stash must own every byte it
// might later replay.
func (w *Worker) stashDone(events []Event, next float64, loads []partition.Load) {
	total := 0
	for i := range events {
		total += len(events[i].Data)
	}
	if cap(w.doneData) < total {
		w.doneData = make([]byte, 0, total)
	}
	w.doneData = w.doneData[:0]
	w.doneEvents = append(w.doneEvents[:0], events...)
	for i := range w.doneEvents {
		if d := w.doneEvents[i].Data; len(d) > 0 {
			off := len(w.doneData)
			w.doneData = append(w.doneData, d...)
			w.doneEvents[i].Data = w.doneData[off:len(w.doneData):len(w.doneData)]
		}
	}
	w.doneNext = next
	w.doneLoads = append(w.doneLoads[:0], loads...)
}

// clearStash discards the replayable done frame and its window
// anchor; rollback recovery calls it because a restored worker's
// engine state no longer matches the stashed window.
func (w *Worker) clearStash() {
	w.lastWinSeq = 0
	w.doneEvents = w.doneEvents[:0]
	w.doneData = w.doneData[:0]
	w.doneLoads = w.doneLoads[:0]
	w.doneNext = 0
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
