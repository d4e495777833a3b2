package distsim

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
)

// DefaultConnectRetries is how many dial/handshake attempts a worker
// makes per connect cycle when Worker.ConnectRetries is zero.
const DefaultConnectRetries = 8

// DefaultHandshakeTimeout bounds each handshake reply wait (config
// after register, resume after hello, bye after stats) when
// Worker.HandshakeTimeout is zero.
const DefaultHandshakeTimeout = 10 * time.Second

// DefaultMaxPark is how many parked reconnect rounds a worker with
// live simulation state makes after its normal reconnect budget is
// exhausted, waiting for a crashed coordinator to restart
// (Worker.MaxPark zero means this default).
const DefaultMaxPark = 64

// ErrCoordinatorLost is returned (wrapped) by Worker.Run when the
// coordinator stays unreachable through the whole park budget. The
// worker's engines still hold the state of the last quiesced barrier;
// Worker.Stats flushes the final local counters.
var ErrCoordinatorLost = errors.New("distsim: coordinator lost")

// LP is a worker-local logical process.
type LP struct {
	ID int
	E  *des.Engine
	// OnMessage handles events addressed to this LP; it runs in engine
	// context at the event's timestamp. Must be set by the model
	// before Worker.Run.
	OnMessage func(ev Event)

	w       *Worker
	sendSeq uint64
	// msgOp is the registered delivery op ("distsim.msg"): inbound
	// events are scheduled as ops carrying the encoded Event, so the
	// pending set is always serializable into a snapshot.
	msgOp des.Op

	// Per-LP send buffers: during a window every send lands here, so
	// LPs running on different pool threads never share a slice. The
	// barrier-time flushSends drains them into the worker-level outbox
	// and local buffer in LP-ID order — byte-identical to what
	// sequential execution would have appended directly. pendSent is
	// the matching window-local piece of Worker.sent.
	outbox   []Event
	local    []localEvent
	pendSent uint64

	// Load-signal bookkeeping for adaptive partitioning: busyNs is the
	// wall time spent in RunUntil since the last done frame (shipped as
	// a delta and reset), busyTotal the cumulative time for obs
	// snapshots, prevExec the executed-event watermark behind the
	// per-window delta. Written only by whichever pool thread holds the
	// LP inside a window; read at barriers.
	busyNs    int64
	busyTotal int64
	prevExec  uint64
}

// Send routes an event to another LP (local or remote) delay seconds
// from the LP's local now; delay must be at least the lookahead.
func (lp *LP) Send(to int, delay float64, data []byte) {
	if delay < lp.w.lookahead {
		panic(fmt.Sprintf("distsim: Send with delay %v below lookahead %v", delay, lp.w.lookahead))
	}
	lp.sendSeq++
	ev := Event{
		Time: lp.E.Now() + delay,
		From: lp.ID, To: to,
		Seq:  lp.sendSeq,
		Data: data,
	}
	lp.pendSent++
	// The ownership map is only mutated at window barriers (migration,
	// restore), so the lookup is safe from any pool thread mid-window.
	if target, local := lp.w.lps[to]; local {
		// Local fast path, buffered with the same ordering key so
		// local and remote delivery are indistinguishable.
		lp.local = append(lp.local, localEvent{ev: ev, lp: target})
		return
	}
	lp.outbox = append(lp.outbox, ev)
}

type localEvent struct {
	ev Event
	lp *LP
}

// Worker owns a subset of LPs and executes windows on command from the
// coordinator. A worker survives connection loss: transport failures
// trigger a reconnect with capped exponential backoff and a
// session-resume handshake, so the simulation state it carries — which
// lives in this process, not in the connection — picks up exactly
// where the wire broke.
type Worker struct {
	lps   map[int]*LP
	order []*LP // deterministic iteration
	ids   []int // owned LP IDs, sorted

	lookahead float64
	horizon   float64
	seed      uint64
	session   uint64

	outbox   []Event
	localBuf []localEvent
	mergeBuf []Event // deliver's reused merge scratch
	sent     uint64
	received uint64

	// Intra-worker execution pool, of one thread at Threads <= 1:
	// poolEnd/poolSeq/poolTimed are plain fields published to the pool
	// threads by the token barrier inside pl.Run, exactly like parsim's
	// windowEnd.
	pl        *pool.Pool
	poolEnd   float64
	poolSeq   uint64
	poolTimed bool

	// collectLoads mirrors the config's RebalanceEvery > 0: the
	// coordinator wants per-LP load deltas on every done frame.
	// loadsBuf is the reused report slice.
	collectLoads bool
	loadsBuf     []partition.Load

	link         *link
	ready        bool // engines built, Setup run
	statsSent    bool
	writeTimeout time.Duration

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
	// coordinator's config (ObsEvery > 0) or EnableObservability.
	obs *workerObs
	// obsEvery/obsSpans hold a local EnableObservability request made
	// before engines exist; applyConfig honors them over the config.
	obsEvery, obsSpans int

	// Dial opens a connection to the coordinator. Worker.Run sets it
	// from its address argument when nil; tests and chaos harnesses
	// preset it to inject faulty transports.
	Dial func() (net.Conn, error)
	// ConnectRetries is the dial/handshake attempt budget per connect
	// cycle (initial connect and each reconnect). Zero means
	// DefaultConnectRetries; negative means a single attempt.
	ConnectRetries int
	// ConnectBackoff is the base delay of the capped exponential
	// backoff between attempts (default 50ms).
	ConnectBackoff time.Duration
	// HandshakeTimeout bounds each handshake reply wait. Zero means
	// DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
	// MaxPark bounds the parked reconnect rounds after the normal
	// reconnect budget fails: a worker with live engine state holds
	// position at the last quiesced barrier and keeps redialing,
	// expecting a crashed coordinator to restart and re-adopt it. Zero
	// means DefaultMaxPark; negative disables parking (the first
	// exhausted reconnect is fatal, the pre-journal behavior).
	MaxPark int

	// Threads is the intra-worker execution pool size: with Threads > 1
	// the worker's LPs may run across that many persistent goroutines
	// inside each window (hierarchical parallelism — distributed across
	// nodes, parallel within them). 0 or 1 executes LPs inline on the
	// serve goroutine, and so does a larger pool in every window it has
	// measured to be faster that way (internal/pool): the value is an
	// upper bound. Results are bit-identical for every value: each
	// LP writes its own outbox during the window and the barrier merges
	// them in canonical LP order, so only wall time changes. The model
	// must keep per-LP state independent during a window (mutate shared
	// structures only in Setup / Migrator hooks, which run at
	// barriers). Set before Run.
	Threads int

	// Setup is called once after the config frame arrives, when
	// engines exist and seeds are known; the model installs OnMessage
	// handlers and initial events here. Checkpointable models schedule
	// via registered ops (des.RegisterOp/ScheduleOp), never closures.
	Setup func(w *Worker)

	// CountEvents optionally reports model-level per-LP counters for
	// the final stats frame.
	CountEvents func() map[int]uint64

	// Model, when set, rides in worker snapshots: Checkpoint frames
	// call MarshalState, restore frames call UnmarshalState.
	Model checkpoint.Checkpointable
}

// NewWorker creates a worker owning the given LP IDs.
func NewWorker(lpIDs ...int) *Worker {
	if len(lpIDs) == 0 {
		panic("distsim: NewWorker with no LPs")
	}
	w := &Worker{lps: make(map[int]*LP)}
	for _, id := range lpIDs {
		if _, dup := w.lps[id]; dup {
			panic(fmt.Sprintf("distsim: duplicate LP %d", id))
		}
		lp := &LP{ID: id, w: w}
		w.lps[id] = lp
		w.order = append(w.order, lp)
	}
	slices.SortFunc(w.order, lpOrder)
	for _, lp := range w.order {
		w.ids = append(w.ids, lp.ID)
	}
	return w
}

// EnableObservability requests worker-side recording regardless of
// what the coordinator's config says: per-LP trace rings and shared
// latency histograms, piggybacked to the coordinator every `every`
// windows (non-positive picks the defaults: every 4, 4096 spans).
// Normally the coordinator drives this through the config frame
// (Coordinator.EnableObservability); call before Run.
func (w *Worker) EnableObservability(every, spanCap int) {
	if every <= 0 {
		every = 4
	}
	if spanCap <= 0 {
		spanCap = 1 << 12
	}
	w.obsEvery, w.obsSpans = every, spanCap
}

// WireSnapshot returns the worker's cumulative transport counters —
// every connection it dialed, including handshake and heartbeat
// traffic. Safe to call from any goroutine (a metrics endpoint) while
// the worker runs.
func (w *Worker) WireSnapshot() LinkStats { return w.wire.Snapshot() }

// newWorkerLink wraps a connection with the worker's shared transport
// counters, so stats span reconnects instead of dying with each peer.
func (w *Worker) newWorkerLink(conn net.Conn) *link {
	p := newPeer(conn)
	p.stats = &w.wire
	return newLink(p)
}

// LP returns the worker-local LP by ID (nil when not owned).
func (w *Worker) LP(id int) *LP { return w.lps[id] }

// LPs returns the owned LPs in ID order.
func (w *Worker) LPs() []*LP { return w.order }

// Lookahead returns the configured lookahead (valid after config).
func (w *Worker) Lookahead() float64 { return w.lookahead }

func (w *Worker) retries() int {
	switch {
	case w.ConnectRetries > 0:
		return w.ConnectRetries
	case w.ConnectRetries < 0:
		return 1
	default:
		return DefaultConnectRetries
	}
}

func (w *Worker) handshakeTimeout() time.Duration {
	if w.HandshakeTimeout > 0 {
		return w.HandshakeTimeout
	}
	return DefaultHandshakeTimeout
}

func (w *Worker) maxPark() int {
	switch {
	case w.MaxPark > 0:
		return w.MaxPark
	case w.MaxPark < 0:
		return 0
	default:
		return DefaultMaxPark
	}
}

// idSeed derives the worker's backoff-jitter seed from its identity
// (the LP set), so each worker of a federation jitters differently but
// deterministically.
func (w *Worker) idSeed() uint64 {
	h := uint64(1469598103934665603)
	for _, id := range w.ids {
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

// Run connects to the coordinator (with dial retry, so a worker
// started before its coordinator waits instead of exiting) and serves
// windows until stopped, reconnecting with session resume across
// transient transport failures.
func (w *Worker) Run(addr string) error {
	if w.Dial == nil {
		w.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return w.run(true)
}

// RunConn is Run over a single existing connection (tests use
// in-memory pipes; cmd/lsnode uses Run). Without a dialer there is no
// reconnect: the first transport failure is returned.
func (w *Worker) RunConn(conn net.Conn) error {
	l := w.newWorkerLink(conn)
	defer l.close()
	cfg, err := w.register(l)
	if err != nil {
		return err
	}
	if err := w.applyConfig(cfg); err != nil {
		return err
	}
	defer w.closePool()
	w.link = l
	return w.serveConn()
}

func (w *Worker) run(reconnect bool) error {
	bo := newBackoff(w.ConnectBackoff, w.idSeed(), "worker")
	attempts := w.retries()

	// Establish: dial, register, await config. A lost config frame is
	// retried by re-registering on a fresh connection — the coordinator
	// treats a duplicate registration for a virgin session as a redo.
	var lastErr error
	for a := 0; ; a++ {
		if a > 0 {
			w.sleep(bo.Delay(a - 1))
		}
		conn, err := dialRetry(w.Dial, attempts, bo, &w.wire)
		if err != nil {
			return err
		}
		l := w.newWorkerLink(conn)
		cfg, err := w.register(l)
		if err == nil {
			if err := w.applyConfig(cfg); err != nil {
				l.close()
				return err
			}
			w.link = l
			break
		}
		l.close()
		lastErr = err
		var fe *fatalError
		if errors.As(err, &fe) {
			return err
		}
		if a+1 >= attempts {
			return fmt.Errorf("distsim: handshake failed after %d attempts: %w", attempts, lastErr)
		}
	}
	defer w.link.close()
	defer w.closePool()

	// Serve, resuming the session across transport failures.
	for {
		err := w.serveConn()
		if err == nil {
			return nil
		}
		var fe *fatalError
		if errors.As(err, &fe) {
			return err
		}
		if !reconnect {
			return err
		}
		if rerr := w.reconnect(bo); rerr != nil {
			if w.statsSent {
				// The stats frame went out at least once and the
				// coordinator is gone: it finished (or died after the
				// run was decided). Nothing left to retry.
				return nil
			}
			// The reconnect budget is spent, but the state this worker
			// carries is irreplaceable mid-run: park and keep redialing
			// on the chance the coordinator crashed and is restarting
			// from its journal to re-adopt us.
			if w.ready && w.maxPark() > 0 {
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

// register sends the registration frame and waits for the config.
func (w *Worker) register(l *link) (*frame, error) {
	if err := l.send(&frame{Kind: frameRegister, LPs: w.ids}); err != nil {
		return nil, err
	}
	f, err := l.recv(w.handshakeTimeout())
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
// the LP engines and runs the model Setup hook.
func (w *Worker) applyConfig(cfg *frame) error {
	w.lookahead = cfg.Lookahead
	w.horizon = cfg.Horizon
	w.seed = cfg.Seed
	w.session = cfg.Session
	w.writeTimeout = time.Duration(cfg.TimeoutSec * float64(time.Second))
	w.collectLoads = cfg.RebalanceEvery > 0
	if w.ready {
		return nil
	}
	// Engines are seeded exactly as package parsim seeds its LPs, so a
	// distributed run reproduces a single-process run bit for bit.
	for _, lp := range w.order {
		w.initLP(lp)
	}
	// Observability: the coordinator's config can switch on recording
	// for the whole cluster; a local EnableObservability call (made
	// before engines existed) takes precedence. Observers attach before
	// Setup so even initial scheduling is on the record.
	every, spans := w.obsEvery, w.obsSpans
	if every == 0 && cfg.ObsEvery > 0 {
		every, spans = cfg.ObsEvery, cfg.ObsSpans
	}
	if every > 0 {
		wo := newWorkerObs(every, spans, len(w.order))
		w.obs = wo
		for i, lp := range w.order {
			lp.E.SetObserver(des.Observer{Recorder: wo.lpRecs[i], Metrics: wo.lpMets[i], Track: lp.ID})
		}
	}
	// The intra-worker pool outlives windows, migrations, and
	// reconnects; it is created once here and closed when the worker's
	// run ends. With obs on, each thread of a real pool gets its own
	// span ring so the merged cluster trace shows per-thread busy/wait
	// phases; a single thread's phases are the worker ring's already.
	w.pl = pool.New(max(1, w.Threads), w.runLP)
	if wo := w.obs; wo != nil && w.Threads > 1 {
		wo.addPoolRecs(w.Threads)
		w.pl.SetObserve(w.observePoolPhases)
	}
	if w.Setup == nil {
		return fatalf("distsim: worker has no Setup hook")
	}
	w.Setup(w)
	for _, lp := range w.order {
		if lp.OnMessage == nil {
			return fatalf("distsim: LP %d has no OnMessage handler", lp.ID)
		}
	}
	// Models may Send during Setup; those land in the per-LP buffers
	// like any window-time send and flush here, before the first window.
	w.flushSends()
	w.ready = true
	return nil
}

// closePool joins the intra-worker pool threads; idempotent, called
// when the worker's run ends.
func (w *Worker) closePool() { w.pl.Close() }

// PoolStats reports how the intra-worker pool executed the windows so
// far: inline on the serve goroutine or dispatched to its threads. Must
// not be called while the worker is running.
func (w *Worker) PoolStats() pool.Stats { return w.pl.Stats() }

// initLP equips an LP with its engine — seeded from the LP id alone,
// so a given LP draws the same random stream no matter which worker
// hosts it — and the "distsim.msg" delivery op every Restore depends
// on. Used for the initial LP set at config time and for LPs adopted
// through live migration.
func (w *Worker) initLP(lp *LP) {
	lp.E = des.NewEngine(des.WithSeed(w.seed + uint64(lp.ID)*0x9e3779b9))
	lp.msgOp = lp.E.RegisterOp("distsim.msg", func(arg []byte) {
		ev, err := decodeEvent(arg)
		if err != nil {
			panic(fmt.Sprintf("distsim: corrupt delivery op argument: %v", err))
		}
		lp.OnMessage(ev)
	})
}

// serveConn serves frames on the current connection until a clean
// shutdown (nil) or a failure. Transport and integrity failures are
// retryable via reconnect; fatalError is not.
func (w *Worker) serveConn() error {
	l := w.link
	p := l.p
	p.writeTimeout = w.writeTimeout

	// Heartbeats: while this worker computes (a window, a snapshot), the
	// coordinator only sees silence. A background ticker at a third of
	// the coordinator's timeout keeps the connection demonstrably alive,
	// so a slow worker is distinguishable from a dead one. Each beat
	// carries the worker's progress watermarks — its processed-inbound
	// ack and its sequenced-send count — so the coordinator can also
	// tell an alive worker that lost a frame (stale watermarks beat
	// after beat) from one that is merely slow, and force a resume
	// instead of waiting forever. The goroutine is bound to this
	// connection's peer — it dies with the connection and a fresh one
	// starts after a reconnect.
	if w.writeTimeout > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func(hb *peer) {
			tick := time.NewTicker(w.writeTimeout / 3)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					beat := &frame{Kind: frameHeartbeat, SendSeq: l.sentOut.Load()}
					if hb.sendRaw(beat, l.ackedIn.Load()) != nil {
						return // connection gone; main loop will notice
					}
					l.stats.Heartbeats.Add(1)
				}
			}
		}(p)
	}

	for {
		// After stats are out, the only thing left is the coordinator's
		// bye: wait for it under a deadline so a lost stats or bye frame
		// is retried through the reconnect path instead of hanging.
		var deadline time.Duration
		if w.statsSent {
			deadline = w.handshakeTimeout()
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
			// Merge the coordinator's inbound events with the events
			// buffered locally at the previous barrier, restoring the
			// single global (From, Seq) order package parsim uses, so
			// equal-time ties break identically in both engines.
			w.deliver(f.Events)
			if wo := w.obs; wo != nil {
				d := obs.Now() - t0
				wo.deliver.Observe(d)
				wo.rec.Record(obs.Span{Wall: t0, Dur: d, Time: f.End, Seq: f.WinSeq, Kind: obs.KindDeliver})
			}
			// Execute the window — inline at Threads <= 1, across the
			// persistent pool otherwise — then drain the per-LP send
			// buffers into the worker-level outbox/local buffer in
			// canonical LP order, restoring the exact sequence a
			// sequential pass would have produced.
			w.runWindow(f.End, f.WinSeq)
			w.flushSends()
			// The done frame piggybacks the earliest pending event time
			// across this worker's engines and local buffer, so a
			// skip-enabled coordinator can jump windows nobody has work
			// in. The outbox backing array is reusable once the frame is
			// marshalled (the send retains the payload, not the events).
			out := w.outbox
			w.outbox = out[:0]
			done := frame{Kind: frameDone, Events: out, Next: w.nextEventTime()}
			if w.collectLoads {
				done.Loads = w.loadDeltas()
			}
			if wo := w.obs; wo != nil {
				now := obs.Now()
				wo.rec.Record(obs.Span{Wall: t0, Dur: now - t0, Time: f.End, Seq: f.WinSeq, Kind: obs.KindWindowBusy})
				wo.windows++
				if wo.windows%uint64(wo.every) == 0 {
					done.Obs = wo.encode(&w.wire, w.ids, w.obsLoads(), false)
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
			} else if data, err := w.migrateOut(f.LPs[0]); err != nil {
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
			if err := w.adoptLP(f.LPs[0], f.Data); err != nil {
				return fatalf("distsim: adopt LP %d: %v", f.LPs[0], err)
			}
			if err := l.send(&frame{Kind: frameMigrated}); err != nil {
				return err
			}
		case frameStop:
			stats := WorkerStats{LPs: w.ids, Sent: w.sent, Received: w.received}
			for _, lp := range w.order {
				stats.EventsExecuted += lp.E.Stats().Executed
			}
			if w.CountEvents != nil {
				stats.PerLPCounts = w.CountEvents()
			}
			final := frame{Kind: frameStats, Stats: stats}
			if wo := w.obs; wo != nil {
				// The final snapshot ships whatever histogram tail the
				// piggyback cadence missed, plus the full trace rings for
				// the merged cluster timeline.
				final.Obs = wo.encode(&w.wire, w.ids, w.obsLoads(), true)
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
// to the model.
func (w *Worker) reconnect(bo *Backoff) error {
	attempts := w.retries()
	if w.statsSent && attempts > 2 {
		// After stats are out only the coordinator's bye is pending, and
		// a missing bye usually means the coordinator already finished
		// and exited. Retry the resume briefly — the coordinator may
		// still need a stats replay — but don't burn the full budget
		// against a listener nobody will ever accept from again.
		attempts = 2
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		w.sleep(bo.Delay(a))
		if err := w.resumeOnce(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// resumeOnce makes one dial + hello attempt against the coordinator.
// A live coordinator answers with resume (rebind the existing link,
// replaying its retained frames); a restarted one answers with
// coord-hello, switching into the re-adoption handshake.
func (w *Worker) resumeOnce() error {
	conn, err := w.Dial()
	if err != nil {
		return err
	}
	p := newPeer(conn)
	p.stats = &w.wire
	p.writeTimeout = w.writeTimeout
	hello := &frame{Kind: frameHello, Session: w.session, RecvSeq: w.link.recvSeq, LPs: w.ids}
	if err := p.sendRaw(hello, w.link.recvSeq); err != nil {
		p.close()
		return err
	}
	f, seq, err := p.recvRaw(w.handshakeTimeout())
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
	reply := &frame{Kind: frameReadopt, LPs: w.ids, WinSeq: w.lastWinSeq, Next: w.nextEventTime()}
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
func (w *Worker) park(bo *Backoff) error {
	limit := w.maxPark()
	for a := 0; a < limit; a++ {
		// Cap the backoff exponent: parking is an open-ended wait for a
		// process restart, not congestion control, so a bounded
		// per-round delay keeps re-adoption latency predictable.
		w.sleep(bo.Delay(min(a, 5)))
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
	stats := WorkerStats{LPs: w.ids, Sent: w.sent, Received: w.received, Incomplete: !w.statsSent}
	for _, lp := range w.order {
		if lp.E != nil {
			stats.EventsExecuted += lp.E.Stats().Executed
		}
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
	time.Sleep(d)
}

// runWindow executes every owned LP through the window ending at end.
// LPs whose next event lies beyond the window are skipped without
// entering their engine loop — and without the two load-timing clock
// reads — so sparse windows pay nothing per idle LP. Per-LP wall
// timing feeds the rebalancer's load signal (and the obs per-LP
// counters): two clock reads per non-idle LP per window, nothing when
// neither consumer is on.
//
// The LPs run on the pool: inline on the serve goroutine at
// Threads <= 1 and in every window the pool finds faster that way,
// across its persistent threads otherwise. poolEnd/poolSeq/poolTimed
// are then published to the pool threads by the token barrier inside
// pl.Run, and the barrier's done-tokens publish everything the LPs
// wrote (engine state, per-LP buffers, busy counters) back to the serve
// goroutine. Windows are independent within themselves by the
// conservative lookahead argument, so the only cross-LP structures
// touched mid-window are the per-LP buffers — which is exactly why they
// are per-LP.
func (w *Worker) runWindow(end float64, seq uint64) {
	w.poolEnd = end
	w.poolSeq = seq
	w.poolTimed = w.collectLoads || w.obs != nil
	w.pl.Run(len(w.order))
}

// runLP executes one LP through the current window; it is the pool
// body. PeekTime may pop tombstones, but this thread is the only one
// touching the LP during the window.
func (w *Worker) runLP(_, i int) {
	lp := w.order[i]
	if lp.E.PeekTime() > w.poolEnd {
		return
	}
	if !w.poolTimed {
		lp.E.RunUntil(w.poolEnd)
		return
	}
	t := obs.Now()
	lp.E.RunUntil(w.poolEnd)
	d := obs.Now() - t
	lp.busyNs += d
	lp.busyTotal += d
}

// observePoolPhases records one pool thread's busy/wait phases of a
// window into that thread's own span ring (single-writer), anchored on
// the window's barrier sequence so MergeTracks aligns them with the
// coordinator timeline. The wait span covers the thread blocked
// through the barrier, the done-frame round trip, and the next
// window's release — the intra-node slice of the synchronization cost.
// A window the pool ran inline is one busy span on thread 0 and no
// wait, and the next dispatched window's waits start where it ended.
func (w *Worker) observePoolPhases(pw int, waitStart, busyStart, busyEnd int64) {
	r := w.obs.poolRecs[pw]
	if waitStart != busyStart {
		r.Record(obs.Span{Kind: obs.KindBarrierWait, Wall: waitStart, Dur: busyStart - waitStart,
			Time: w.poolEnd, Seq: w.poolSeq})
	}
	r.Record(obs.Span{Kind: obs.KindWindowBusy, Wall: busyStart, Dur: busyEnd - busyStart,
		Time: w.poolEnd, Seq: w.poolSeq})
}

// flushSends drains every LP's window-local send buffers into the
// worker-level outbox and local buffer, in canonical LP order. Each
// per-LP buffer is already internally ordered by eventOrder (From is
// the LP itself, Seq is its monotonic send sequence), and w.order is
// lpOrder-sorted, so the concatenation equals the sequence sequential
// execution would have appended directly — the done frame, the stash a
// restarted coordinator replays, and the snapshot image are all
// byte-identical to a Threads-1 run. Buffers are truncated, not
// released: the backing arrays are reused by the next window's sends.
func (w *Worker) flushSends() {
	for _, lp := range w.order {
		if len(lp.outbox) > 0 {
			w.outbox = append(w.outbox, lp.outbox...)
			lp.outbox = lp.outbox[:0]
		}
		if len(lp.local) > 0 {
			w.localBuf = append(w.localBuf, lp.local...)
			lp.local = lp.local[:0]
		}
		w.sent += lp.pendSent
		lp.pendSent = 0
	}
}

// deliver merges the coordinator's inbound events with the local
// buffer from the previous window and schedules everything in the
// global (From, Seq) order. The merge scratch is reused across
// windows; remote events (whose Data aliases the connection's read
// buffer) are consumed here, before the next frame can overwrite it.
func (w *Worker) deliver(remote []Event) {
	all := w.mergeBuf[:0]
	if n := len(remote) + len(w.localBuf); cap(all) < n {
		all = make([]Event, 0, n)
	}
	all = append(all, remote...)
	for i := range w.localBuf {
		all = append(all, w.localBuf[i].ev)
	}
	w.localBuf = w.localBuf[:0]
	slices.SortFunc(all, eventOrder)
	for i := range all {
		ev := &all[i]
		lp := w.lps[ev.To]
		if lp == nil {
			panic(fmt.Sprintf("distsim: received event for foreign LP %d", ev.To))
		}
		w.received++
		// Delivery is op-based so pending deliveries serialize into
		// snapshots; events on the wire are already encoded, so one more
		// small encode here is noise next to the frame round trip.
		lp.E.AtOp(ev.Time, lp.msgOp, encodeEvent(ev))
	}
	w.mergeBuf = all[:0]
}

// loadDeltas builds the per-LP load report for one done frame:
// executed events and busy wall time since the previous report. The
// report slice is reused; the frame marshals it before the next
// window, so aliasing is safe.
func (w *Worker) loadDeltas() []partition.Load {
	w.loadsBuf = w.loadsBuf[:0]
	for _, lp := range w.order {
		exec := lp.E.Stats().Executed
		if exec < lp.prevExec {
			// The engine rolled back beneath us (restore reset the
			// counters but not the watermark); resynchronize.
			lp.prevExec = exec
		}
		w.loadsBuf = append(w.loadsBuf, partition.Load{
			LP:     lp.ID,
			Events: exec - lp.prevExec,
			BusyNs: uint64(lp.busyNs),
		})
		lp.prevExec = exec
		lp.busyNs = 0
	}
	return w.loadsBuf
}

// obsLoads builds the cumulative per-LP counters for an obs snapshot.
func (w *Worker) obsLoads() []lpLoad {
	wo := w.obs
	wo.loads = wo.loads[:0]
	for _, lp := range w.order {
		wo.loads = append(wo.loads, lpLoad{
			id:   lp.ID,
			exec: lp.E.Stats().Executed,
			busy: uint64(lp.busyTotal),
		})
	}
	return wo.loads
}

// nextEventTime reports the earliest pending event time anywhere on
// this worker: the minimum engine PeekTime across owned LPs plus any
// locally buffered sends the coordinator cannot see. +Inf means fully
// drained.
func (w *Worker) nextEventTime() float64 {
	next := math.Inf(1)
	for _, lp := range w.order {
		if t := lp.E.PeekTime(); t < next {
			next = t
		}
	}
	for i := range w.localBuf {
		if t := w.localBuf[i].ev.Time; t < next {
			next = t
		}
	}
	return next
}
