// Package des implements the discrete-event simulation kernel shared
// by every simulator personality in this repository.
//
// The kernel follows the taxonomy of the reproduced paper:
//
//   - It is an event-driven DES: simulation time advances by irregular
//     increments, directly to the timestamp of the next pending event.
//     A time-driven stepper (TimeDriven) is provided alongside it for
//     the efficiency comparison the paper makes between the two.
//   - The future event list is eventq's 4-ary heap. The paper singles
//     out the queue structure — O(1) calendar-style versus O(log n)
//     tree/heap structures — as the dominant factor in engine
//     performance; experiment E3 measures every eventq structure
//     directly, and the heap is at or near the front of it.
//   - A process-oriented layer (Process, "active objects" in MONARC 2
//     terminology) maps simulated concurrent programs onto goroutines
//     with a strict handover protocol, so sequential runs remain fully
//     deterministic.
//
// Determinism: with equal seeds and equal schedules, runs are
// bit-identical. Simultaneous events execute in schedule (FIFO) order,
// enforced by a monotone sequence number.
package des

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Engine is an event-driven discrete-event simulation kernel.
// An Engine is not safe for concurrent use: exactly one goroutine — the
// one that called Run — executes events, and simulated processes hand
// control back and forth with that goroutine synchronously.
type Engine struct {
	// heap is the future event list: every pending record not in the
	// lane, at the key it was pushed under.
	heap eventq.Heap
	// pend is set while the heap's root is the record of the running
	// event, which front returned without popping: the event's own
	// reschedule replaces it (ReplaceMin) in one sift, and every other
	// heap access pops it first (settle). Never set outside a run.
	pend bool
	now  float64
	seq  uint64
	rng  *rng.Source

	// lane holds the records due at the instant the clock stands at,
	// in schedule order, linked through Next (laneTail is its last,
	// laneLen its length): they skip the heap. The clock never moves
	// while the lane holds a record (see front).
	lane, laneTail *eventq.Event
	laneLen        int

	// head points at a lower bound on the time of every pending record,
	// queued or in the lane, tombstones included (see Head): ownHead,
	// or the slot HeadSlot moved it to.
	head    *float64
	ownHead float64

	// seed is the root seed of the engine's random streams.
	seed uint64

	// freeEv is the head of the event free list. Fired and discarded
	// event records are recycled through it, so the steady-state
	// schedule→dequeue→execute cycle performs no heap allocation.
	freeEv *eventq.Event
	// slab is the engine's newest block of event records: below len in
	// use or free-listed, up to cap untouched (see fresh).
	slab []eventq.Event
	// ops is the registered-op table backing ScheduleOp/AtOp: named,
	// restorable event callbacks (see checkpoint.go). Index 0 is a
	// reserved sentinel meaning "closure event"; real ops start at 1.
	ops   []opEntry
	opIdx map[string]uint32

	stopped bool
	running bool

	// statistics
	executed  uint64
	scheduled uint64
	canceled  uint64
	maxQueue  int

	// obs is the attached observability sink; nil when every form of
	// tracing and metrics is off. The hot loop performs exactly one
	// nil-check against it, which is the whole disabled-mode cost.
	obs *Observer

	// live process accounting (see process.go)
	liveProcs    int
	pendingPanic *procPanic

	// perEngine holds each package's ops and record tables (PerEngine).
	perEngine map[reflect.Type]any
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithSeed sets the root seed for the engine's random streams. The
// default seed is 1.
func WithSeed(seed uint64) Option {
	return func(e *Engine) { e.seed = seed }
}

// Observer bundles the optional observability attachments of an
// engine. Any field may be nil/zero; an Observer with no attachments
// detaches observability entirely (restoring the nil-check-only path).
//
// All attachments are single-writer from the engine goroutine; they
// must not be shared with another concurrently running engine (the
// federation gives each LP its own, tagged by Track).
type Observer struct {
	// Hook is invoked before each event callback executes.
	Hook obs.Hook
	// Recorder receives execute spans, schedule marks, and
	// canceled-tombstone discard marks, with queue depth.
	Recorder *obs.Recorder
	// Metrics accumulates event-callback wall time and queue dwell.
	Metrics *obs.Metrics
	// Track tags recorded spans with an LP/track id for multi-engine
	// traces.
	Track int
}

// enabled reports whether any attachment is active.
func (o Observer) enabled() bool {
	return o.Hook != nil || o.Recorder != nil || o.Metrics != nil
}

// defaultObserver, when non-nil, is attached by NewEngine to every
// engine. See SetDefaultObserver.
var defaultObserver *Observer

// SetDefaultObserver installs (or, with nil, removes) a process-wide
// observer template attached to every subsequently constructed engine,
// until its owner calls SetObserver. It exists for front ends
// (cmd/lssim) that drive personality packages which construct engines
// internally and expose no engine handle. It is not synchronized and
// the attachments are single-writer, so it is only safe for sequential
// front-end wiring — never set it around a parallel federation run
// (the federation attaches per-LP observers instead).
func SetDefaultObserver(o *Observer) { defaultObserver = o }

// NewEngine returns an engine at simulation time 0.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{seed: 1, ownHead: math.Inf(1)}
	e.head = &e.ownHead
	for _, opt := range opts {
		opt(e)
	}
	if defaultObserver != nil {
		e.SetObserver(*defaultObserver)
	}
	e.rng = rng.New(e.seed)
	return e
}

// SetObserver replaces the engine's observability attachments. A zero
// Observer detaches everything. It must not be called while Run is
// executing events.
func (e *Engine) SetObserver(o Observer) {
	if !o.enabled() {
		e.obs = nil
		return
	}
	e.obs = &o
}

// Observer returns a copy of the current attachments (zero when none).
func (e *Engine) Observer() Observer {
	if e.obs == nil {
		return Observer{}
	}
	return *e.obs
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's root random source.
func (e *Engine) Rand() *rng.Source { return e.rng }

// Stream returns a named independent random substream. Equal engine
// seeds and equal names always produce identical streams.
func (e *Engine) Stream(name string) *rng.Source { return e.rng.Derive(name) }

// Timer is a handle to a scheduled event; it supports cancellation
// and, through RescheduleOp, re-arming.
//
// Timer is a small value, not a pointer: the underlying event record
// is engine-owned and recycled through a free list the moment it fires
// or its tombstone is discarded, so the record a handle points at may
// since have been reused for an unrelated event. The handle therefore
// carries the sequence number it was issued under, which no other
// schedule draws; Cancel and Canceled compare it against the record's
// current one, making stale calls (cancel-after-fire,
// cancel-after-recycle, a handle RescheduleOp replaced) safe no-ops.
// The zero Timer is a valid no-op handle.
type Timer struct {
	ev       *eventq.Event
	seq      uint64
	time     float64
	canceled bool
}

// Time returns the simulation time the event is (or was) due.
func (t Timer) Time() float64 { return t.time }

// Cancel prevents a pending event from firing. Canceling an event that
// already fired (or was already canceled) is a no-op, as is canceling
// the zero Timer. Cancellation is lazy: the tombstoned record stays in
// the heap or the lane, counted by QueueLen, until it reaches the
// front, which keeps the heap free of random removal. A timer that is
// only to move later is cheaper re-armed (RescheduleOp), which leaves
// no tombstone.
func (t *Timer) Cancel() {
	if t.ev == nil || t.ev.Seq != t.seq {
		return // already fired (and recycled), or zero handle
	}
	t.ev.Canceled = true
	t.canceled = true
}

// Canceled reports whether Cancel was called before the event fired.
func (t Timer) Canceled() bool {
	if t.canceled {
		return true
	}
	return t.ev != nil && t.ev.Seq == t.seq && t.ev.Canceled
}

// Schedule runs fn after delay units of simulation time.
// It panics on negative delay or non-finite delay: scheduling into the
// past is always a model bug.
func (e *Engine) Schedule(delay float64, fn func()) Timer {
	checkDelay("Schedule", delay, e.now)
	return e.atEvent(e.now+delay, fn, 0, nil)
}

// checkDelay panics on a negative or non-finite delay: scheduling into
// the past is always a model bug. NaN fails both compares.
func checkDelay(what string, delay, now float64) {
	if !(delay >= 0 && delay <= math.MaxFloat64) {
		panic(fmt.Sprintf("des: %s with invalid delay %v at t=%v", what, delay, now))
	}
}

// At runs fn at absolute simulation time t, which must not precede the
// current time.
func (e *Engine) At(t float64, fn func()) Timer {
	if t < e.now || math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: At with invalid time %v (now %v)", t, e.now))
	}
	return e.atEvent(t, fn, 0, nil)
}

// atEvent is the common schedule path for closure events (fn non-nil)
// and registered-op events (fn nil, op > 0). An event due now joins
// the lane; any other goes into the heap, replacing a root left pending
// for the running event (see pend).
func (e *Engine) atEvent(t float64, fn func(), op uint32, arg []byte) Timer {
	ev := e.freeEv
	if ev != nil {
		e.freeEv = ev.Next
		ev.Next = nil
		ev.Canceled = false
	} else {
		ev = e.fresh()
	}
	ev.Fn, ev.Op, ev.Arg = fn, op, arg
	e.keyed(ev, t)
	switch {
	case t == e.now:
		if e.lane == nil {
			e.lane = ev
		} else {
			e.laneTail.Next = ev
		}
		e.laneTail = ev
		e.laneLen++
	case e.pend:
		e.pend = false
		e.heap.ReplaceMin(eventq.Item{Time: t, Seq: ev.Seq, Event: ev})
	default:
		e.heap.Push(eventq.Item{Time: t, Seq: ev.Seq, Event: ev})
	}
	if n := e.QueueLen(); n > e.maxQueue {
		e.maxQueue = n
	}
	if t < *e.head {
		*e.head = t
	}
	if e.obs != nil {
		e.scheduleObserved(ev)
	}
	return Timer{ev: ev, seq: ev.Seq, time: t}
}

// keyed gives ev the key (t, next sequence number) and counts the
// schedule.
func (e *Engine) keyed(ev *eventq.Event, t float64) {
	e.seq++
	e.scheduled++
	ev.Time, ev.Seq = t, e.seq
}

// scheduleObserved stamps SchedAt and records the schedule mark of ev,
// queued. SchedAt is only maintained while observing: the store (and
// the field's cache traffic) stays off the disabled-mode path. Events
// scheduled before the observer was attached carry a stale SchedAt;
// their dwell samples are clamped at zero.
func (e *Engine) scheduleObserved(ev *eventq.Event) {
	ev.SchedAt = e.now
	if o := e.obs; o.Recorder != nil {
		o.Recorder.Record(obs.Span{
			Kind: obs.KindSchedule, Track: int32(o.Track), Seq: ev.Seq,
			Time: ev.Time, Wall: obs.Now(), Queue: int32(e.QueueLen()), Label: e.label(ev),
		})
	}
}

// push puts ev into the heap at its key.
func (e *Engine) push(ev *eventq.Event) {
	e.settle()
	e.heap.Push(eventq.Item{Time: ev.Time, Seq: ev.Seq, Event: ev})
}

// label is ev's trace label: its op's name, or empty for a closure.
func (e *Engine) label(ev *eventq.Event) string {
	if ev.Op != 0 {
		return e.ops[ev.Op].name
	}
	return ""
}

// slabMin and slabMax bound a slab's records: an engine with a few
// pending events touches a few, and 10⁶ pending cost ~3 900 allocations.
const slabMin, slabMax = 4, 256

// fresh returns an untouched record from the slab, starting a slab of
// twice the records when this one is used up.
func (e *Engine) fresh() *eventq.Event {
	n := len(e.slab)
	if n == cap(e.slab) {
		e.slab, n = make([]eventq.Event, 0, min(max(2*n, slabMin), slabMax)), 0
	}
	e.slab = e.slab[:n+1]
	return &e.slab[n]
}

// recycle returns a fired or discarded event record to the free list.
// Zeroing Seq, which no schedule draws, invalidates every outstanding
// handle to the record; clearing Fn releases the closure.
func (e *Engine) recycle(ev *eventq.Event) {
	ev.Seq = 0
	ev.Fn = nil
	ev.Op = 0
	ev.Arg = nil
	ev.Next = e.freeEv
	e.freeEv = ev
}

// discard retires a canceled event's tombstone: counts it, records the
// cancel mark when tracing, and recycles the record.
func (e *Engine) discard(it eventq.Item) {
	e.canceled++
	if o := e.obs; o != nil && o.Recorder != nil {
		o.Recorder.Record(obs.Span{
			Kind: obs.KindCancel, Track: int32(o.Track), Seq: it.Seq,
			Time: it.Time, Wall: obs.Now(), Queue: int32(e.QueueLen()), Label: e.label(it.Event),
		})
	}
	e.recycle(it.Event)
}

// execObserved is exec under the attached observer: hook first, then
// the timed execution, then the span/histograms. Split out of exec so
// the untraced path stays short.
func (e *Engine) execObserved(it eventq.Item, t float64) {
	ev, seq := it.Event, it.Seq
	fn, op, arg := ev.Fn, ev.Op, ev.Arg
	schedAt, label := ev.SchedAt, e.label(ev)
	e.recycle(ev)
	e.executed++
	o := e.obs
	qlen := e.QueueLen()
	if o.Hook != nil {
		o.Hook(obs.Event{Time: t, Seq: seq, Label: label, QueueLen: qlen})
	}
	if o.Metrics != nil {
		// Dwell is simulation time spent queued, in nano-units.
		o.Metrics.Dwell.Observe(int64((t - schedAt) * 1e9))
	}
	if o.Recorder == nil && o.Metrics == nil {
		if fn != nil {
			fn()
		} else {
			e.ops[op].fn(arg)
		}
		return
	}
	start := obs.Now()
	if fn != nil {
		fn()
	} else {
		e.ops[op].fn(arg)
	}
	dur := obs.Now() - start
	if o.Metrics != nil {
		o.Metrics.Exec.Observe(dur)
	}
	if o.Recorder != nil {
		o.Recorder.Record(obs.Span{
			Kind: obs.KindExec, Track: int32(o.Track), Seq: seq,
			Time: t, Wall: start, Dur: dur, Queue: int32(qlen), Label: label,
		})
	}
}

// Stop halts Run after the current event completes. It may be called
// from within an event handler or simulated process.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains, Stop is called, or no
// runnable work remains. It returns the final simulation time.
func (e *Engine) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= horizon. Events beyond
// the horizon stay queued; the clock is left at min(horizon, time of
// last executed event) — it never advances past work that was actually
// performed, so a subsequent RunUntil continues seamlessly.
func (e *Engine) RunUntil(horizon float64) float64 {
	e.run(horizon, math.MaxUint64)
	return e.now
}

// Step executes exactly one event if one is pending, returning false
// when the queue is empty.
func (e *Engine) Step() bool {
	n := e.executed
	e.run(math.Inf(1), n+1)
	return e.executed != n
}

// run is the pop-execute loop of RunUntil and Step: it executes events
// with timestamps <= horizon until the executed count reaches last,
// Stop is called or none is left.
func (e *Engine) run(horizon float64, last uint64) {
	if e.running {
		panic("des: RunUntil called reentrantly")
	}
	e.running = true
	// Deferred: a caller that recovers a handler's panic may re-enter,
	// or checkpoint, which reads the whole queue.
	defer e.stopRunning()
	e.stopped = false
	for !e.stopped && e.executed != last {
		it, ok := e.front(horizon, true)
		if !ok {
			break
		}
		if it.Time < e.now {
			panic(fmt.Sprintf("des: event queue returned time %v before now %v", it.Time, e.now))
		}
		e.now = it.Time
		e.exec(it, it.Time)
	}
}

// stopRunning ends a run: it settles a root left pending and clears
// running.
func (e *Engine) stopRunning() {
	e.settle()
	e.running = false
}

// settle pops the heap root front left in place for the running event
// (see pend). Its record is recycled, maybe already reused, so nothing
// reads it.
func (e *Engine) settle() {
	if e.pend {
		e.pend = false
		e.heap.Pop()
	}
}

// front applies the engine's one order rule and returns the first
// pending record in (time, seq) order if it is due at or before
// horizon, removed from the heap or the lane when pop is set and left
// in place otherwise. A live record at the heap's root is the one
// exception: pop leaves it there and sets pend, so that the event's
// own reschedule replaces it in one pass, and the next front, push or
// end of the run pops it (settle). The rule: queued records at or
// before now, then the lane, then later queued records. Every lane record was scheduled
// at now, after every queued record due at now was (a record moved
// later is pushed again at its new key, drawn before the clock reached
// it, and never into the lane), so the rule is the (time, seq) order
// without comparing the two.
//
// On the way it discards tombstones and pushes each moved record again
// at its new key. When nothing is due it leaves *e.head exact: the time
// of the first record past the horizon, tombstone or not, or +Inf.
func (e *Engine) front(horizon float64, pop bool) (eventq.Item, bool) {
	e.settle()
	for {
		it, ok := e.heap.Peek()
		var live bool
		if ev := e.lane; ev != nil && !(ok && it.Time <= e.now) {
			if e.now > horizon {
				*e.head = e.now
				return it, false
			}
			it = eventq.Item{Time: e.now, Seq: ev.Seq, Event: ev}
			if live = !ev.Canceled && ev.Time == e.now; live && !pop {
				return it, true
			}
			e.popLane()
		} else {
			if !ok {
				*e.head = math.Inf(1)
				return it, false
			}
			if it.Time > horizon {
				*e.head = it.Time
				return it, false
			}
			if live = !it.Event.Canceled && it.Seq == it.Event.Seq; live {
				e.pend = pop
				return it, true
			}
			e.heap.Pop()
		}
		switch {
		case live:
			return it, true
		case it.Event.Canceled:
			e.discard(it)
		default: // moved later: its old key came up
			e.push(it.Event)
		}
	}
}

// popLane removes the lane's first record.
func (e *Engine) popLane() {
	ev := e.lane
	if e.lane = ev.Next; e.lane == nil {
		e.laneTail = nil
	}
	ev.Next = nil
	e.laneLen--
}

// exec recycles the record front popped and runs its callback, with
// the clock already at the event's time; at is the time the trace
// gives it.
func (e *Engine) exec(it eventq.Item, at float64) {
	if e.obs != nil {
		e.execObserved(it, at)
		return
	}
	// Recycle before running fn: the record is out of the queue, so
	// events scheduled inside fn can reuse it immediately.
	ev := it.Event
	fn, op, arg := ev.Fn, ev.Op, ev.Arg
	e.recycle(ev)
	e.executed++
	if fn != nil {
		fn()
	} else {
		e.ops[op].fn(arg)
	}
}

// PeekTime returns the timestamp of the next pending live event, or
// +Inf when none is queued. It discards the tombstones and settles the
// moved records ahead of it, as RunUntil would.
func (e *Engine) PeekTime() float64 {
	it, ok := e.front(math.Inf(1), false)
	if !ok {
		return math.Inf(1)
	}
	return it.Time
}

// Head returns a lower bound on the time of the next pending event,
// costing no queue access: +Inf only when nothing is pending. Scheduling
// lowers it, and RunUntil makes it exact where it stops: the time of
// the first record past the horizon, which may be a canceled one (or
// the old time of one moved later), or +Inf. A caller that finds Head() beyond a horizon knows
// RunUntil(horizon) would do nothing. It reads the engine's own field
// or the slot HeadSlot moved the bound to.
func (e *Engine) Head() float64 { return *e.head }

// HeadSlot moves the Head bound, value and all, into *slot, which the
// engine then maintains wherever it runs, schedules or restores: a
// caller that scans many engines' bounds (winsync's due list) reads
// one array. A slot belongs to one engine; the one left behind is no
// longer written.
func (e *Engine) HeadSlot(slot *float64) {
	*slot = *e.head
	e.head = slot
}

// Executed is Stats().Executed without the copy of Stats.
func (e *Engine) Executed() uint64 { return e.executed }

// Stats reports engine counters: events executed, scheduled (a
// RescheduleOp counts as one schedule), canceled (tombstones
// discarded), and the high-water mark of QueueLen, the queue and the
// lane together. When an Observer with Metrics is attached, the
// latency histograms ride along.
type Stats struct {
	Executed  uint64
	Scheduled uint64
	Canceled  uint64
	MaxQueue  int

	// Exec is the event-callback wall-time histogram (nanoseconds);
	// nil unless an Observer with Metrics is attached.
	Exec *obs.Histogram
	// Dwell is the schedule→fire queue-dwell histogram in nano-units
	// of simulation time; nil unless Metrics is attached.
	Dwell *obs.Histogram
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Executed:  e.executed,
		Scheduled: e.scheduled,
		Canceled:  e.canceled,
		MaxQueue:  e.maxQueue,
	}
	if e.obs != nil && e.obs.Metrics != nil {
		s.Exec = &e.obs.Metrics.Exec
		s.Dwell = &e.obs.Metrics.Dwell
	}
	return s
}

// QueueLen returns the number of pending records, tombstones included:
// the heap's and the lane's. A record moved later (RescheduleOp)
// counts once, and a heap root left pending (pend) not at all.
func (e *Engine) QueueLen() int {
	if e.pend {
		return e.heap.Len() - 1 + e.laneLen
	}
	return e.heap.Len() + e.laneLen
}
