package eventq

// Event is the engine-owned payload of a queued Item: the callback
// (a closure, or a registered op and its argument) and the bookkeeping
// the engine needs to recycle event records through a free list. An
// event's trace label is its op's name (a process's start is the op
// des:start, its resumes des:resume); a closure has none.
//
// It is declared in this package — rather than in the engine that
// manages it — only so Item can hold it as a concrete pointer. The
// previous design stored the payload through an `any` field, which
// cost an interface header per Item and a type assertion on every
// dequeue; on the hot schedule→dequeue→execute path those costs
// dominate once the model itself is cheap. Queues never inspect an
// Event: they order Items purely by (Time, Seq).
//
// Time and Seq are the key the event is due at. The Item a queue holds
// carries the key the record was pushed under, which is the same one
// unless the engine moved the event later in place (a re-armed timer):
// then the record sits at its old key until that key comes up, and the
// engine pushes it again at Time and Seq.
type Event struct {
	// Fn is the event callback, cleared on recycle so the free list
	// does not retain closures. Nil when the event was scheduled as a
	// registered op (Op/Arg below), the serializable alternative to a
	// closure used by checkpointable models.
	Fn func()
	// Op indexes the engine's registered-op table when Fn is nil; 0
	// means "no op" (a closure event, or an inert restored tombstone).
	Op uint32
	// Canceled tombstones the event: the engine discards it when it
	// reaches the head of the queue instead of executing it. It sits in
	// Op's padding, which keeps a record at 72 bytes, not 80.
	Canceled bool
	// Arg is the op argument, cleared on recycle alongside Fn.
	Arg []byte
	// Time is the simulation time the event is due at.
	Time float64
	// Seq is the sequence number the event was scheduled under, and
	// the record's generation: the engine zeroes it on recycle and
	// every schedule draws a new one, so a handle that captured it
	// detects that its event is gone and a stale Cancel is a no-op.
	Seq uint64
	// SchedAt is the simulation time the event was scheduled at, kept
	// for the engine's queue-dwell histogram (fire time − SchedAt).
	SchedAt float64
	// Next links free-list entries between uses, and the engine's
	// lane of events due at the current instant while queued there.
	Next *Event
}
