package eventq

// Event is the engine-owned payload of a queued Item: the callback,
// trace label, and the bookkeeping the engine needs to recycle event
// records through a free list.
//
// It is declared in this package — rather than in the engine that
// manages it — only so Item can hold it as a concrete pointer. The
// previous design stored the payload through an `any` field, which
// cost an interface header per Item and a type assertion on every
// dequeue; on the hot schedule→dequeue→execute path those costs
// dominate once the model itself is cheap. Queues never inspect an
// Event: they order Items purely by (Time, Seq).
//
// Gen is a generation counter: the engine bumps it every time the
// record is recycled onto its free list, which lets outstanding timer
// handles detect that their event is gone and turn stale Cancel calls
// into safe no-ops.
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
	// Op's padding, which keeps a record at 80 bytes, not 88.
	Canceled bool
	// Arg is the op argument, cleared on recycle alongside Fn.
	Arg []byte
	// Label is the trace label (empty when tracing metadata is off).
	Label string
	// SchedAt is the simulation time the event was scheduled at, kept
	// for the engine's queue-dwell histogram (fire time − SchedAt).
	SchedAt float64
	// Gen is incremented each time the record is recycled; handles
	// compare it against the generation they captured at schedule time.
	Gen uint64
	// Next links free-list entries between uses.
	Next *Event
}
