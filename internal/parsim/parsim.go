// Package parsim implements parallel simulation execution: the
// "distributed" pole of the taxonomy's execution axis.
//
// The paper observes that "a pure serial simulation execution, which
// would make use of only a single processor, can not be a reality when
// addressing the problem of simulating large scale distributed
// systems" — modern engines must at least exploit every local
// processor — while fully distributed simulation "has not
// significantly impressed the general simulation community" (Fujimoto
// 1993) because of the synchronization cost. Both observations are
// measurable here.
//
// The model partitions a simulation into logical processes (LPs), each
// owning a private des.Engine. Cross-LP interactions carry a minimum
// delay — the lookahead — which makes the classic conservative
// synchronization of Chandy/Misra/Bryant applicable. The Federation
// executes LPs over a worker pool in lock-step lookahead windows (the
// synchronous/bounded-lag variant of conservative synchronization):
// within a window every LP may run independently because no message
// sent inside the window can affect the same window. Results are
// bit-identical for any worker count, including 1, which is what lets
// experiment E5 attribute speedups to parallelism alone.
//
// Cross-LP messages carry opaque []byte payloads (the same contract as
// distsim.Event.Data; models own their encoding). A send appends to the
// sender's outbox; at the barrier every message becomes a registered
// "parsim.msg" op event in the target engine, so the pending set is
// always serializable and a federation can be checkpointed at any
// window barrier. Delivery costs O(messages) per window and a
// federation O(LPs) memory.
package parsim

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Message is a cross-LP event as the receiving LP's OnMessage sees it.
type Message struct {
	// Time is the absolute simulation time of delivery.
	Time float64
	// From is the sending LP index.
	From int
	// Data is the model payload, encoded by the sender. The handler may
	// retain it; the sender must not mutate it after Send.
	Data []byte
}

// outMsg is one buffered send: a message and the LP it is addressed to.
type outMsg struct {
	target int
	msg    Message
}

// LP is one logical process: a partition of the model with a private
// engine and clock.
type LP struct {
	Index int
	E     *des.Engine

	fed *Federation
	// OnMessage handles remote messages; it runs in the LP's engine
	// context at Message.Time. It must be set before Run.
	OnMessage func(m Message)

	// msgOp is the registered delivery op ("parsim.msg"): inbound
	// messages are scheduled as ops carrying the encoded Message.
	msgOp des.Op
	// outbox buffers the messages produced this window, in send order.
	outbox []outMsg
	sent   uint64
	recv   uint64
}

// Send schedules a message for the target LP at delay >= the
// federation lookahead from the LP's current local time. It panics on
// smaller delays: they would violate the synchronization window.
func (lp *LP) Send(target int, delay float64, data []byte) {
	if delay < lp.fed.lookahead {
		panic(fmt.Sprintf("parsim: Send with delay %v below lookahead %v", delay, lp.fed.lookahead))
	}
	if target < 0 || target >= len(lp.fed.lps) {
		panic(fmt.Sprintf("parsim: Send to unknown LP %d", target))
	}
	lp.outbox = append(lp.outbox, outMsg{target, Message{
		Time: lp.E.Now() + delay,
		From: lp.Index,
		Data: data,
	}})
	lp.sent++
}

// Sent returns the number of cross-LP messages this LP has produced.
func (lp *LP) Sent() uint64 { return lp.sent }

// Received returns the number of cross-LP messages delivered to it.
func (lp *LP) Received() uint64 { return lp.recv }

// Federation is a set of LPs advancing in conservative lock-step
// windows over a persistent pool of workers.
//
// The pool (internal/pool, extracted from the original parsim
// implementation so the distributed worker can reuse it) is created
// once per Run and reused for every window: the coordinator publishes
// the window end, releases one token per worker, workers claim LPs off
// an atomic cursor, and a counting barrier closes the window.
// Rebuilding the goroutines and channels per window — the naive
// translation of "fork workers for each window" — costs a pool
// construction and teardown every lookahead interval, which is exactly
// the execution-context churn the paper's engine guidance warns about;
// with fine lookaheads the simulation executes thousands of windows
// per second and the churn dominates.
//
// The worker count is an upper bound: the pool times a few windows
// both ways at the head of every epoch and runs the rest on the
// coordinator's own goroutine whenever waking the workers costs more
// than the windows hold (see internal/pool). Results do not depend on
// it; Snapshot.Pool reports what it chose.
type Federation struct {
	lps       []*LP
	lookahead float64
	workers   int

	windows uint64
	// idle counts skipped (LP, window) pairs, one slot per pool worker:
	// runLP is the hottest loop of a sparse federation and a shared
	// counter would bounce between the workers' caches.
	idle []idleSlot

	// clock is the end of the last completed window: Run continues from
	// here, and Checkpoint records it so a restored federation resumes
	// at the exact window boundary.
	clock float64

	// model is the attached Checkpointable state rider (SetModel).
	model checkpoint.Checkpointable

	// per-Run worker-pool state: windowEnd is published to the pool
	// workers by the token barrier inside pl.Run.
	windowEnd float64
	pl        *pool.Pool
	poolStats pool.Stats // summed over the pools of completed Runs

	// observability (EnableObservability); every structure below is
	// single-writer: per-LP recorders are written only by whichever
	// worker holds the LP inside a window (the token barrier orders
	// cross-window handoffs), per-worker recorders/histograms only by
	// their worker, and windowWall only by the coordinator.
	obsOn       bool
	lpRecs      []*obs.Recorder
	lpMetrics   []*obs.Metrics
	workerRecs  []*obs.Recorder
	barrierWait []obs.Histogram // per worker: wall ns blocked between windows
	busy        []obs.Histogram // per worker: wall ns executing LPs per window
	windowWall  obs.Histogram   // coordinator: wall ns per window incl. delivery
}

// idleSlot is one pool worker's idle-skip count, padded to a cache line.
type idleSlot struct {
	n uint64
	_ [56]byte
}

// NewFederation creates n LPs with the given lookahead (the minimum
// cross-LP delay, > 0) executed by the given number of parallel
// workers (>= 1). Each LP's engine derives its seed from the base
// seed and the LP index, so results are reproducible and independent
// of the worker count.
func NewFederation(n int, lookahead float64, workers int, seed uint64) *Federation {
	return NewFederationWithQueue(n, lookahead, workers, seed, eventq.KindHeap)
}

// NewFederationWithQueue is NewFederation with an explicit
// future-event-list kind for every LP engine. Results are independent
// of the kind (dequeue order is total), so it is exercised by the
// determinism tests and benchmark sweeps.
func NewFederationWithQueue(n int, lookahead float64, workers int, seed uint64, kind eventq.Kind) *Federation {
	if n <= 0 || lookahead <= 0 || workers <= 0 {
		panic(fmt.Sprintf("parsim: NewFederation(n=%d, lookahead=%v, workers=%d)", n, lookahead, workers))
	}
	f := &Federation{lookahead: lookahead, workers: workers, lps: make([]*LP, n)}
	f.idle = make([]idleSlot, f.poolWorkers())
	for i := range f.lps {
		lp := &LP{
			Index: i,
			E:     des.NewEngine(des.WithSeed(seed+uint64(i)*0x9e3779b9), des.WithQueue(kind)),
			fed:   f,
		}
		// Registered before any model op, so "parsim.msg" is op 1 in
		// every engine whatever the model registers afterwards.
		lp.msgOp = lp.E.RegisterOp("parsim.msg", func(arg []byte) {
			m, err := decodeMessage(arg)
			if err != nil {
				panic(fmt.Sprintf("parsim: corrupt message op argument: %v", err))
			}
			m.Time = lp.E.Now()
			lp.OnMessage(m)
		})
		f.lps[i] = lp
	}
	return f
}

// LPs returns the number of logical processes.
func (f *Federation) LPs() int { return len(f.lps) }

// LP returns the i-th logical process.
func (f *Federation) LP(i int) *LP { return f.lps[i] }

// Lookahead returns the federation lookahead.
func (f *Federation) Lookahead() float64 { return f.lookahead }

// Windows returns the number of synchronization windows executed.
func (f *Federation) Windows() uint64 { return f.windows }

// IdleSkips returns the number of (LP, window) pairs that were skipped
// because the LP had no event inside the window — work the persistent
// pool avoids dispatching entirely.
func (f *Federation) IdleSkips() uint64 {
	var sum uint64
	for i := range f.idle {
		sum += f.idle[i].n
	}
	return sum
}

// poolWorkers returns the number of workers the pool actually uses
// (extra workers beyond the LP count would only contend on the cursor).
func (f *Federation) poolWorkers() int {
	if f.workers > len(f.lps) {
		return len(f.lps)
	}
	return f.workers
}

// EnableObservability attaches a trace recorder (spanCap spans, ring)
// and latency histograms to every LP engine, plus a recorder and
// barrier-wait/busy histograms to every pool worker. It must be called
// before Run; calling it with tracing already enabled resets the
// attachments. Observability never perturbs simulation results — the
// determinism tests run with it on — it only costs wall time.
func (f *Federation) EnableObservability(spanCap int) {
	workers := f.poolWorkers()
	f.obsOn = true
	f.lpRecs = make([]*obs.Recorder, len(f.lps))
	f.lpMetrics = make([]*obs.Metrics, len(f.lps))
	for i, lp := range f.lps {
		f.lpRecs[i] = obs.NewRecorder(spanCap)
		f.lpMetrics[i] = &obs.Metrics{}
		lp.E.SetObserver(des.Observer{Recorder: f.lpRecs[i], Metrics: f.lpMetrics[i], Track: i})
	}
	f.workerRecs = make([]*obs.Recorder, workers)
	for w := range f.workerRecs {
		f.workerRecs[w] = obs.NewRecorder(spanCap)
	}
	f.barrierWait = make([]obs.Histogram, workers)
	f.busy = make([]obs.Histogram, workers)
	f.windowWall.Reset()
}

// Snapshot is a point-in-time view of federation-level runtime
// metrics, taken between Run calls.
type Snapshot struct {
	// Windows and IdleSkips mirror the federation counters.
	Windows   uint64
	IdleSkips uint64
	// LPs holds each LP engine's Stats (with latency histograms when
	// observability is on).
	LPs []des.Stats
	// BarrierWait aggregates, across workers, the wall nanoseconds a
	// worker spent blocked between finishing one window and starting
	// the next — the synchronization cost of conservative lock-step.
	BarrierWait *obs.Histogram
	// WindowWall is the coordinator's wall nanoseconds per window,
	// including message delivery.
	WindowWall *obs.Histogram
	// Utilization is, per worker, busy wall time divided by total
	// window wall time — the load-balance profile of the run. A window
	// the pool ran inline is busy time of worker 0 alone.
	Utilization []float64
	// Pool counts the windows the pool ran inline on the coordinator's
	// goroutine and those it dispatched to its workers, and how often
	// its measurements reversed that choice.
	Pool pool.Stats
}

// Snapshot captures the current federation metrics. The histograms are
// merged copies; mutating them does not affect the live run. Must not
// be called while Run is executing.
func (f *Federation) Snapshot() Snapshot {
	s := Snapshot{Windows: f.windows, IdleSkips: f.IdleSkips(), Pool: f.poolStats}
	s.LPs = make([]des.Stats, len(f.lps))
	for i, lp := range f.lps {
		s.LPs[i] = lp.E.Stats()
	}
	if !f.obsOn {
		return s
	}
	bw := &obs.Histogram{}
	for w := range f.barrierWait {
		bw.Merge(&f.barrierWait[w])
	}
	s.BarrierWait = bw
	ww := &obs.Histogram{}
	ww.Merge(&f.windowWall)
	s.WindowWall = ww
	total := f.windowWall.Sum()
	s.Utilization = make([]float64, len(f.busy))
	for w := range f.busy {
		if total > 0 {
			s.Utilization[w] = float64(f.busy[w].Sum()) / float64(total)
		}
	}
	return s
}

// TraceTracks returns one obs.Track per LP and per pool worker, ready
// for obs.WriteChromeTrace: LP tracks carry event spans and
// schedule/cancel marks, worker tracks carry barrier-wait and
// window-busy spans. Nil when observability is off.
func (f *Federation) TraceTracks() []obs.Track {
	if !f.obsOn {
		return nil
	}
	var tracks []obs.Track
	for i, r := range f.lpRecs {
		tracks = append(tracks, obs.Track{Name: fmt.Sprintf("lp-%d", i), TID: i, Rec: r})
	}
	for w, r := range f.workerRecs {
		// Worker tids live in a disjoint range above the LP tids.
		tracks = append(tracks, obs.Track{Name: fmt.Sprintf("worker-%d", w), TID: 1000 + w, Rec: r})
	}
	return tracks
}

// Run advances every LP to the horizon in lookahead-sized windows.
// Within a window LPs execute concurrently on the worker pool; at the
// barrier, buffered cross-LP messages are delivered into the target
// engines in (source LP, send order).
//
// The worker goroutines are started once here and reused for every
// window; they exit when Run returns. Run may be called again to
// continue past a previous horizon.
func (f *Federation) Run(horizon float64) {
	if horizon <= f.clock || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		panic(fmt.Sprintf("parsim: Run(%v) with window clock at %v", horizon, f.clock))
	}
	for _, lp := range f.lps {
		if lp.OnMessage == nil {
			panic(fmt.Sprintf("parsim: LP %d has no OnMessage handler", lp.Index))
		}
	}
	f.pl = pool.New(f.poolWorkers(), f.runLP)
	if f.obsOn {
		f.pl.SetObserve(f.observePhases)
	}
	defer func() {
		f.pl.Close() // stop signal: workers drain and exit
		st := f.pl.Stats()
		f.poolStats.Inline += st.Inline
		f.poolStats.Dispatched += st.Dispatched
		f.poolStats.Flips += st.Flips
		f.pl = nil
	}()
	for windowEnd := f.clock + f.lookahead; ; windowEnd += f.lookahead {
		if windowEnd > horizon {
			windowEnd = horizon
		}
		f.windows++
		var wallStart int64
		if f.obsOn {
			wallStart = obs.Now()
		}
		f.runWindow(windowEnd)
		f.deliver()
		if f.obsOn {
			f.windowWall.Observe(obs.Now() - wallStart)
		}
		f.clock = windowEnd
		if windowEnd >= horizon {
			return
		}
	}
}

// runWindow executes every LP up to windowEnd on the persistent
// worker pool (inline on the calling goroutine when the pool has a
// single worker or finds that faster). LPs whose next event lies beyond
// the window are skipped without entering their engine loop.
func (f *Federation) runWindow(windowEnd float64) {
	// windowEnd is a plain field: the pool's token barrier publishes it
	// to every worker before any runLP call of this window.
	f.windowEnd = windowEnd
	f.pl.Run(len(f.lps))
}

// runLP is the pool body: execute one LP through the current window.
// An LP with nothing due this window never enters its engine loop.
// PeekTime may pop tombstones, but this pool worker is the only one
// touching the LP during the window.
func (f *Federation) runLP(w, i int) {
	lp := f.lps[i]
	if lp.E.PeekTime() > f.windowEnd {
		f.idle[w].n++
		return
	}
	lp.E.RunUntil(f.windowEnd)
}

// observePhases is the pool's per-worker phase hook. The wait phase —
// from reporting one window's done-token until the next start-token
// arrives (the window-close barrier, message delivery, and the release
// of the next window) — is the measurable synchronization cost the
// paper's C4 discussion attributes to conservative execution. A window
// the pool runs inline has no barrier (waitStart == busyStart) and
// records only a busy phase, of worker 0: with one worker that is every
// window, with more the barrier-wait histogram holds the dispatched
// windows only, and a wait never spans the inline windows before it.
func (f *Federation) observePhases(w int, waitStart, busyStart, busyEnd int64) {
	if waitStart != busyStart {
		wait := busyStart - waitStart
		f.barrierWait[w].Observe(wait)
		f.workerRecs[w].Record(obs.Span{
			Kind: obs.KindBarrierWait, Track: int32(w), Wall: waitStart, Dur: wait,
		})
	}
	busy := busyEnd - busyStart
	f.busy[w].Observe(busy)
	f.workerRecs[w].Record(obs.Span{
		Kind: obs.KindWindowBusy, Track: int32(w), Wall: busyStart, Dur: busy,
		Time: f.windowEnd,
	})
}

// deliver flushes every outbox into the target engines: sources in LP
// order, each outbox in send order. That order fixes the FEL sequence
// numbers of same-instant deliveries, so it is part of the results. The
// work is O(messages); outboxes are truncated, not released, and the
// backing arrays are reused by the next window's sends.
func (f *Federation) deliver() {
	for _, src := range f.lps {
		for i := range src.outbox {
			m := &src.outbox[i]
			dst := f.lps[m.target]
			dst.recv++
			dst.E.AtOp(m.msg.Time, dst.msgOp, encodeMessage(&m.msg))
		}
		clear(src.outbox) // drop the payload references
		src.outbox = src.outbox[:0]
	}
}
