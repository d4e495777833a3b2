package des

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/eventq"
	"repro/internal/rng"
)

// This file implements engine checkpoint/restore: the engine clock,
// sequence counter, statistics, random stream state and the full
// pending-event set, appended to the encoder of whoever owns the
// snapshot file (an LP image, and through it a federation or cluster
// checkpoint). The engine writes no container of its own.
//
// Closures cannot be serialized, so a checkpointable model schedules
// its events as *registered ops*: a named callback registered once per
// engine (RegisterOp) plus an optional byte-slice argument per event
// (ScheduleOp/AtOp). The snapshot stores the op name and argument;
// RestoreState reconnects them to the callbacks the restoring model has
// registered under the same names. Op scheduling is also the cheaper
// path — no per-event closure allocation — so models convert to it for
// speed even before they care about checkpoints.

// opEntry is one registered op: the restorable identity (name) and the
// callback. proc marks a process's start and resume ops, which no
// snapshot can hold.
type opEntry struct {
	name string
	fn   func(arg []byte)
	proc bool
}

// Op is a handle to an op registered on a specific engine. The zero Op
// is invalid; obtain handles from RegisterOp.
type Op struct {
	idx uint32
}

// RegisterOp registers a named restorable event callback and returns
// its handle. Names identify callbacks across checkpoint/restore: a
// snapshot taken from this engine can only be restored into an engine
// that has registered the same names. Registering a duplicate or empty
// name panics — op tables are program structure, not user input.
func (e *Engine) RegisterOp(name string, fn func(arg []byte)) Op {
	if name == "" || fn == nil {
		panic("des: RegisterOp with empty name or nil fn")
	}
	if e.opIdx == nil {
		e.opIdx = make(map[string]uint32)
		// Reserve index 0: a dispatch of ops[0] means a corrupted event
		// record, so fail loudly rather than running the wrong callback.
		e.ops = append(e.ops, opEntry{fn: func([]byte) {
			panic("des: event dispatched with reserved op 0")
		}})
	}
	if _, dup := e.opIdx[name]; dup {
		panic(fmt.Sprintf("des: op %q registered twice", name))
	}
	e.ops = append(e.ops, opEntry{name: name, fn: fn})
	idx := uint32(len(e.ops) - 1)
	e.opIdx[name] = idx
	return Op{idx: idx}
}

// ScheduleOp schedules a registered op after delay units of simulation
// time, like Schedule but serializable (and allocation-free: no
// closure is created). The arg slice is retained by the engine until
// the event fires; callers must not mutate it afterwards.
func (e *Engine) ScheduleOp(delay float64, op Op, arg []byte) Timer {
	checkDelay("ScheduleOp", delay, e.now)
	return e.atOp(e.now+delay, op, arg)
}

// RescheduleOp re-arms the event t names as op(arg) after delay and
// returns its new handle: the same as t.Cancel() then
// ScheduleOp(delay, op, arg), down to the sequence number it draws and
// the counts in Stats, except that it leaves no tombstone when it can.
// When the new time is later than both the event's time and now, the
// record stays where it sits and takes the new key, op and arg; when
// its old key comes up the engine pushes it into the queue (never the
// lane) at the new key. Otherwise — a fired, canceled-and-discarded or
// stale t, or a time not later — it cancels and schedules. A fluid
// model's one completion timer, which every admission moves later,
// re-arms this way without growing the queue.
func (e *Engine) RescheduleOp(t Timer, delay float64, op Op, arg []byte) Timer {
	checkDelay("RescheduleOp", delay, e.now)
	at := e.now + delay
	ev := t.ev
	if ev == nil || ev.Seq != t.seq || !(at > ev.Time && at > e.now) {
		t.Cancel()
		return e.atOp(at, op, arg)
	}
	e.checkOp(op)
	ev.Fn, ev.Canceled = nil, false
	ev.Op, ev.Arg = op.idx, arg
	e.keyed(ev, at)
	if e.obs != nil {
		e.scheduleObserved(ev)
	}
	return Timer{ev: ev, seq: ev.Seq, time: at}
}

// AtOp schedules a registered op at absolute time t, like At but
// serializable.
func (e *Engine) AtOp(t float64, op Op, arg []byte) Timer {
	if t < e.now || math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: AtOp with invalid time %v (now %v)", t, e.now))
	}
	return e.atOp(t, op, arg)
}

func (e *Engine) atOp(t float64, op Op, arg []byte) Timer {
	e.checkOp(op)
	return e.atEvent(t, nil, op.idx, arg)
}

func (e *Engine) checkOp(op Op) {
	if op.idx == 0 || op.idx >= uint32(len(e.ops)) {
		panic("des: ScheduleOp with unregistered op (use RegisterOp)")
	}
}

// AppendState implements checkpoint.Checkpointable: it appends the
// engine's clock, sequence counter, statistics counters, random stream
// state and every pending event to enc. It is non-destructive — the
// run can continue afterwards — and must be called between events (not
// from inside a handler, and not with live simulated processes, whose
// goroutine stacks cannot be captured).
//
// Every live pending event must have been scheduled as a registered op
// (ScheduleOp/AtOp); a pending closure event makes the engine
// unserializable, AppendState reports its time and writes nothing. So
// does a pending start or resume left by a killed process: it names a
// process record no snapshot holds.
// Canceled tombstones are exempt — they never execute, so they
// round-trip as inert records to keep the cancellation statistics
// exact.
func (e *Engine) AppendState(enc *checkpoint.Enc) error {
	if e.running {
		return fmt.Errorf("des: AppendState called while Run is executing")
	}
	if e.liveProcs > 0 {
		return fmt.Errorf("des: AppendState with %d live simulated processes", e.liveProcs)
	}

	// Snapshot the pending set by draining the queue and re-pushing it
	// (no queue structure supports iteration, but dequeue order is
	// total, so a re-push restores identical behavior), then the lane.
	// Each record is written at the key it is due at, a moved record's
	// new one, in that key's order: a restored engine queues it there
	// and runs the same events in the same order.
	items := make([]eventq.Item, 0, e.QueueLen())
	for {
		it, ok := e.queue.Pop()
		if !ok {
			break
		}
		items = append(items, it)
	}
	for _, it := range items {
		e.queue.Push(it)
	}
	for ev := e.lane; ev != nil; ev = ev.Next {
		items = append(items, eventq.Item{Event: ev})
	}
	for i := range items {
		ev := items[i].Event
		items[i].Time, items[i].Seq = ev.Time, ev.Seq
		if ev.Canceled {
			continue
		}
		if ev.Fn != nil {
			return fmt.Errorf("des: pending event at t=%v was scheduled as a closure; checkpointable models must use ScheduleOp", ev.Time)
		}
		if op := &e.ops[ev.Op]; op.proc {
			return fmt.Errorf("des: pending event at t=%v is op %q, left by a process that was killed or has ended; processes cannot be checkpointed", ev.Time, op.name)
		}
	}
	slices.SortFunc(items, func(a, b eventq.Item) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	rngState, err := e.rng.MarshalBinary()
	if err != nil {
		return err
	}

	enc.U64(e.seed)
	enc.F64(e.now)
	enc.U64(e.seq)
	enc.U64(e.executed)
	enc.U64(e.scheduled)
	enc.U64(e.canceled)
	enc.Int(e.maxQueue)
	enc.Raw(rngState)
	enc.Int(len(items))
	for _, it := range items {
		ev := it.Event
		enc.F64(it.Time)
		enc.U64(it.Seq)
		enc.F64(ev.SchedAt)
		enc.Bool(ev.Canceled)
		if ev.Op != 0 {
			enc.Str(e.ops[ev.Op].name)
		} else {
			enc.Str("") // canceled closure: restores as an inert tombstone
		}
		enc.Raw(ev.Arg)
	}
	return nil
}

// RestoreState implements checkpoint.Checkpointable: it overwrites the
// engine with state written by AppendState. The pending events
// currently queued (for example the initial events a model's
// constructor scheduled) are discarded and replaced by the snapshot's,
// and the clock, counters, and random streams resume exactly where the
// checkpointed engine stood. The restoring model must have registered
// every op name the snapshot references. Everything is decoded and
// checked before the engine changes, so a corrupt snapshot leaves it
// as it was.
//
// Outstanding Timer handles are invalidated by RestoreState; a model
// that cancels events across a checkpoint must carry the information
// it needs to re-issue the cancellation in its own Checkpointable
// state.
//
// A resumed run is bit-identical to an uninterrupted one: same event
// order (time, sequence number, tie-breaks), same random draws, same
// final statistics.
func (e *Engine) RestoreState(d *checkpoint.Dec) error {
	if e.running {
		return fmt.Errorf("des: RestoreState called while Run is executing")
	}
	if e.liveProcs > 0 {
		return fmt.Errorf("des: RestoreState with %d live simulated processes", e.liveProcs)
	}
	seed := d.U64()
	now := d.F64()
	seq := d.U64()
	executed := d.U64()
	scheduled := d.U64()
	canceled := d.U64()
	maxQueue := d.Int()
	rngState := d.RawView()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	var src rng.Source
	if err := src.UnmarshalBinary(rngState); err != nil {
		return err
	}
	if maxQueue < 0 {
		return fmt.Errorf("des: snapshot has queue high-water mark %d", maxQueue)
	}
	if n < 0 || n > d.Remaining() { // an event costs more than a byte
		return fmt.Errorf("des: snapshot's event count %d exceeds its %d remaining bytes", n, d.Remaining())
	}

	// The events must come in dequeue order, from the clock on: real
	// sequence numbers start at 1.
	evs, items := make([]eventq.Event, n), make([]eventq.Item, n)
	last := eventq.Item{Time: now}
	for i := range items {
		it := eventq.Item{Time: d.F64(), Seq: d.U64(), Event: &evs[i]}
		ev := it.Event
		ev.Time, ev.Seq = it.Time, it.Seq
		ev.SchedAt, ev.Canceled = d.F64(), d.Bool()
		name := d.RawView() // a Str; looked up without a copy
		ev.Arg = d.Raw()
		if err := d.Err(); err != nil {
			return err
		}
		if !(it.Time > last.Time || it.Time == last.Time && it.Seq > last.Seq) {
			return fmt.Errorf("des: snapshot's event %d at (t=%v, seq %d) does not follow (t=%v, seq %d)", i, it.Time, it.Seq, last.Time, last.Seq)
		}
		if len(name) != 0 {
			idx, ok := e.opIdx[string(name)]
			if !ok {
				return fmt.Errorf("des: snapshot references op %q, which the restoring engine has not registered", name)
			}
			ev.Op = idx
		} else if !ev.Canceled {
			return fmt.Errorf("des: snapshot contains a live event with no op name")
		}
		items[i], last = it, it
	}

	// Commit: drop whatever was pending, zeroing its records' sequence
	// numbers so no handle to one re-arms a record in no queue, rebuild
	// the queue and install the snapshot.
	for {
		it, ok := e.queue.Pop()
		if !ok {
			break
		}
		it.Event.Seq = 0
	}
	for ev := e.lane; ev != nil; ev = ev.Next {
		ev.Seq = 0
	}
	e.lane, e.laneTail, e.laneLen = nil, nil, 0
	e.seed = seed
	*e.rng = src
	e.newQueue()
	e.freeEv = nil
	e.now = now
	e.seq = seq
	e.executed = executed
	e.scheduled = scheduled
	e.canceled = canceled
	e.maxQueue = maxQueue
	e.stopped = false
	*e.head = math.Inf(1)
	if n > 0 {
		*e.head = items[0].Time
	}
	for _, it := range items {
		e.queue.Push(it)
	}
	return nil
}
