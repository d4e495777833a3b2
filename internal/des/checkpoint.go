package des

import (
	"fmt"
	"io"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/eventq"
)

// This file implements engine checkpoint/restore: a versioned binary
// snapshot of the engine clock, sequence counter, statistics, random
// stream state, and the full pending-event set, written in the
// self-describing section format of package checkpoint.
//
// Closures cannot be serialized, so a checkpointable model schedules
// its events as *registered ops*: a named callback registered once per
// engine (RegisterOp) plus an optional byte-slice argument per event
// (ScheduleOp/AtOp). The snapshot stores the op name and argument;
// Restore reconnects them to the callbacks the restoring model has
// registered under the same names. Op scheduling is also the cheaper
// path — no per-event closure allocation — so models convert to it for
// speed even before they care about checkpoints.

// opEntry is one registered op: the restorable identity (name) and the
// callback.
type opEntry struct {
	name string
	fn   func(arg []byte)
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
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		panic(fmt.Sprintf("des: ScheduleOp with invalid delay %v at t=%v", delay, e.now))
	}
	return e.atOp(e.now+delay, op, arg)
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
	if op.idx == 0 || op.idx >= uint32(len(e.ops)) {
		panic("des: ScheduleOp with unregistered op (use RegisterOp)")
	}
	// The op name doubles as the trace label: it is a stable string, so
	// labeling costs nothing.
	return e.atEvent(t, e.ops[op.idx].name, nil, op.idx, arg)
}

// snapshot section names (engine level).
const (
	secEngine = "des.engine"
	secRNG    = "des.rng"
	secOps    = "des.ops"
	secEvents = "des.events"
)

// Checkpoint writes a snapshot of the engine to w: clock, sequence
// counter, statistics counters, random stream state, and every pending
// event. It is non-destructive — the run can continue afterwards — and
// must be called between events (not from inside a handler, and not
// with live simulated processes, whose goroutine stacks cannot be
// captured).
//
// Every live pending event must have been scheduled as a registered op
// (ScheduleOp/AtOp); a pending closure event makes the engine
// unserializable and Checkpoint reports it by name. Canceled
// tombstones are exempt — they never execute, so they round-trip as
// inert records to keep the cancellation statistics exact.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.running {
		return fmt.Errorf("des: Checkpoint called while Run is executing")
	}
	if e.liveProcs > 0 {
		return fmt.Errorf("des: Checkpoint with %d live simulated processes", e.liveProcs)
	}

	// Snapshot the pending set by draining and re-pushing: no queue
	// structure supports iteration, but dequeue order is total, so a
	// re-push restores identical behavior.
	items := make([]eventq.Item, 0, e.queue.Len())
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

	var evEnc checkpoint.Enc
	evEnc.Int(len(items))
	for _, it := range items {
		ev := it.Event
		if ev.Fn != nil && !ev.Canceled {
			return fmt.Errorf("des: pending event %q at t=%v was scheduled as a closure; checkpointable models must use ScheduleOp", ev.Label, it.Time)
		}
		evEnc.F64(it.Time)
		evEnc.U64(it.Seq)
		evEnc.F64(ev.SchedAt)
		evEnc.Bool(ev.Canceled)
		if ev.Op != 0 {
			evEnc.Str(e.ops[ev.Op].name)
		} else {
			evEnc.Str("") // canceled closure: restores as an inert tombstone
		}
		evEnc.Str(ev.Label)
		evEnc.Raw(ev.Arg)
	}

	cw := checkpoint.NewWriter(w)
	var enc checkpoint.Enc
	enc.U64(e.seed)
	enc.Str(string(e.queueKind))
	enc.F64(e.now)
	enc.U64(e.seq)
	enc.U64(e.executed)
	enc.U64(e.scheduled)
	enc.U64(e.canceled)
	enc.Int(e.maxQueue)
	if err := cw.Section(secEngine, enc.Bytes()); err != nil {
		return err
	}
	rngState, err := e.rng.MarshalBinary()
	if err != nil {
		return err
	}
	if err := cw.Section(secRNG, rngState); err != nil {
		return err
	}
	// The op name table is informational (events reference ops by name,
	// not index): it lets tooling inspect what a snapshot needs without
	// decoding the event list.
	var opsEnc checkpoint.Enc
	registered := e.ops
	if len(registered) > 0 {
		registered = registered[1:] // skip the reserved sentinel
	}
	opsEnc.Int(len(registered))
	for _, op := range registered {
		opsEnc.Str(op.name)
	}
	if err := cw.Section(secOps, opsEnc.Bytes()); err != nil {
		return err
	}
	if err := cw.Section(secEvents, evEnc.Bytes()); err != nil {
		return err
	}
	return cw.Close()
}

// Restore overwrites the engine with a snapshot written by Checkpoint:
// the pending events currently queued (for example the initial events
// a model's constructor scheduled) are discarded and replaced by the
// snapshot's, and the clock, counters, and random streams resume
// exactly where the checkpointed engine stood. The restoring model
// must have registered every op name the snapshot references.
//
// Outstanding Timer handles are invalidated by Restore; a model that
// cancels events across a checkpoint must carry the information it
// needs to re-issue the cancellation in its own Checkpointable state.
//
// A resumed run is bit-identical to an uninterrupted one: same event
// order (time, sequence number, tie-breaks), same random draws, same
// final statistics.
func (e *Engine) Restore(r io.Reader) error {
	if e.running {
		return fmt.Errorf("des: Restore called while Run is executing")
	}
	if e.liveProcs > 0 {
		return fmt.Errorf("des: Restore with %d live simulated processes", e.liveProcs)
	}
	snap, err := checkpoint.Read(r)
	if err != nil {
		return err
	}
	engSec, ok := snap.Section(secEngine)
	if !ok {
		return fmt.Errorf("des: snapshot has no %s section", secEngine)
	}
	d := checkpoint.NewDec(engSec)
	seed := d.U64()
	kind := d.Str()
	now := d.F64()
	seq := d.U64()
	executed := d.U64()
	scheduled := d.U64()
	canceled := d.U64()
	maxQueue := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	rngState, ok := snap.Section(secRNG)
	if !ok {
		return fmt.Errorf("des: snapshot has no %s section", secRNG)
	}
	evSec, ok := snap.Section(secEvents)
	if !ok {
		return fmt.Errorf("des: snapshot has no %s section", secEvents)
	}

	// Decode the event list fully before touching engine state, so a
	// corrupt snapshot leaves the engine unchanged.
	ed := checkpoint.NewDec(evSec)
	n := ed.Int()
	type restoredEvent struct {
		time     float64
		seq      uint64
		schedAt  float64
		canceled bool
		op       uint32
		label    string
		arg      []byte
	}
	events := make([]restoredEvent, 0, n)
	for i := 0; i < n; i++ {
		re := restoredEvent{
			time:     ed.F64(),
			seq:      ed.U64(),
			schedAt:  ed.F64(),
			canceled: ed.Bool(),
		}
		opName := ed.Str()
		re.label = ed.Str()
		re.arg = ed.Raw()
		if err := ed.Err(); err != nil {
			return err
		}
		if opName != "" {
			idx, ok := e.opIdx[opName]
			if !ok {
				return fmt.Errorf("des: snapshot references op %q, which the restoring engine has not registered", opName)
			}
			re.op = idx
		} else if !re.canceled {
			return fmt.Errorf("des: snapshot contains a live event with no op name")
		}
		events = append(events, re)
	}
	if err := e.rng.UnmarshalBinary(rngState); err != nil {
		return err
	}

	// Commit: rebuild the queue (discarding whatever was pending) and
	// install the snapshot.
	e.seed = seed
	_ = kind // informational: restore keeps the engine's own FEL kind
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
	for _, re := range events {
		*e.head = min(*e.head, re.time)
		ev := e.fresh()
		ev.Op = re.op
		ev.Arg = re.arg
		ev.Label = re.label
		ev.SchedAt = re.schedAt
		ev.Canceled = re.canceled
		e.queue.Push(eventq.Item{Time: re.time, Seq: re.seq, Event: ev})
	}
	return nil
}
