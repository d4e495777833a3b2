// Package eventq provides future-event-list (FEL) data structures for
// discrete-event simulation engines.
//
// The choice of pending-event structure dominates the runtime of a
// discrete-event engine once models grow to many simultaneous pending
// events. This package implements the classic contenders — a 4-ary
// heap and a splay tree (O(log n) per operation), a sorted linked list
// (O(n) insert, O(1) pop), a skip list (expected O(log n)), and two
// amortized-O(1) multi-list structures, the calendar queue and the
// ladder queue — behind one Queue interface so engines and benchmarks
// can swap them freely.
//
// All queues order items by (Time, Seq): ties on simulation time are
// broken by the monotonically increasing sequence number assigned at
// schedule time, which gives every structure identical, FIFO-stable
// dequeue order. None of the structures supports random removal or
// a change of key: the engine marks a canceled record and discards it
// when its key comes up, and a record re-armed later keeps its key
// until then and is pushed again at the new one (package des). Events
// due at the instant the engine's clock stands at never reach a queue:
// they wait in the engine's FIFO lane.
package eventq

import "fmt"

// Item is a pending simulation event as seen by the queue: a timestamp,
// a tie-breaking sequence number, and an opaque payload owned by the
// engine. The payload is a concrete *Event rather than an interface so
// that pushing an item never boxes and popping one never type-asserts
// — the queues themselves treat Event as opaque.
type Item struct {
	// Time is the simulation time at which the event fires.
	Time float64
	// Seq breaks ties between items with equal Time. Engines must
	// assign strictly increasing values so dequeue order is total
	// and FIFO-stable.
	Seq uint64
	// Event is the engine-owned payload; nil for bare benchmark items.
	Event *Event
}

// Before reports whether item a orders strictly before item b.
func (a Item) Before(b Item) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Seq < b.Seq
}

// Queue is a future event list: a priority queue over Items keyed by
// (Time, Seq). Implementations need not be safe for concurrent use;
// each engine owns exactly one queue. It holds every pending record not
// due at the engine's current instant, tombstones and records moved
// later included, each at the key it was pushed under.
type Queue interface {
	// Push inserts an item. Items may arrive in any time order, but
	// most structures are tuned for the common case of inserts at or
	// after the current minimum.
	Push(Item)
	// Pop removes and returns the minimum item. ok is false when the
	// queue is empty.
	Pop() (it Item, ok bool)
	// Peek returns the minimum item without removing it. ok is false
	// when the queue is empty.
	Peek() (it Item, ok bool)
	// Len returns the number of items currently queued.
	Len() int
	// Name identifies the structure (for reports and benchmarks).
	Name() string
}

// Kind selects a Queue implementation by name.
type Kind string

// The queue kinds implemented by this package.
const (
	KindHeap     Kind = "heap"     // 4-ary heap, O(log n)
	KindList     Kind = "list"     // sorted doubly-linked list, O(n) insert
	KindSkipList Kind = "skiplist" // skip list, expected O(log n)
	KindSplay    Kind = "splay"    // splay tree, amortized O(log n)
	KindCalendar Kind = "calendar" // calendar queue, amortized O(1)
	KindLadder   Kind = "ladder"   // ladder queue, amortized O(1)
)

// Kinds lists every implemented queue kind in a stable order, for
// benchmark sweeps and reports.
func Kinds() []Kind {
	return []Kind{KindHeap, KindList, KindSkipList, KindSplay, KindCalendar, KindLadder}
}

// New constructs an empty queue of the given kind with the default
// seed. It panics on an unknown kind: kinds are programmer input, not
// user input.
func New(k Kind) Queue { return NewSeeded(k, 1) }

// NewSeeded constructs an empty queue of the given kind. The seed
// feeds the structure's internal randomness (today only the skip
// list's tower-height stream); engines pass their own seed through so
// two engines with different seeds do not share level sequences.
// Deterministic structures ignore it. Panics on an unknown kind.
func NewSeeded(k Kind, seed uint64) Queue {
	switch k {
	case KindHeap:
		return NewHeap()
	case KindList:
		return NewList()
	case KindSkipList:
		return NewSkipList(seed)
	case KindSplay:
		return NewSplay()
	case KindCalendar:
		return NewCalendar()
	case KindLadder:
		return NewLadder()
	default:
		panic(fmt.Sprintf("eventq: unknown queue kind %q", k))
	}
}
