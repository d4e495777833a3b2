package des

import (
	"encoding/binary"
	"reflect"
)

// Continuations. A model that multiplexes many short jobs onto the
// engine's goroutine writes each job as a record and each of its steps
// as a registered op over that record: an event carries the op and the
// record's 4-byte index, so scheduling a step allocates nothing and the
// pending event list stays serializable (see Checkpoint). Every
// primitive that takes time (Resource.AcquireOp, the resources' and
// netsim's ...Op forms) takes its continuation the same way, as an op
// and an argument, and either Calls it inside the event that completes
// the work or schedules it, exactly where a blocked process would
// resume.

// Table is a free list of records of one kind, each named by its index
// in the table. The index, as 4 bytes, is the argument of every op
// event the record schedules; the bytes never change, so an argument
// slice stays valid for as long as the record is in use. A record's
// index is reused once Put returns it.
type Table[T any] struct {
	slots []*slot[T]
	free  []uint32
}

type slot[T any] struct {
	rec T
	arg [4]byte
}

// tableBlock is how many records a Table allocates at once.
const tableBlock = 32

// Get returns a zero record and its op argument, reusing a free one
// when there is one.
func (t *Table[T]) Get() (*T, []byte) {
	if len(t.free) == 0 {
		block, n := make([]slot[T], tableBlock), len(t.slots)
		for i := range block {
			binary.LittleEndian.PutUint32(block[i].arg[:], uint32(n+i))
			t.slots = append(t.slots, &block[i])
			t.free = append(t.free, uint32(n+len(block)-1-i)) // lowest index first out
		}
	}
	s := t.slots[t.free[len(t.free)-1]]
	t.free = t.free[:len(t.free)-1]
	return &s.rec, s.arg[:]
}

// At returns the record an op argument names.
func (t *Table[T]) At(arg []byte) *T {
	return &t.slots[binary.LittleEndian.Uint32(arg)].rec
}

// Put zeroes the record arg names and frees its index. No event that
// will run may still name it.
func (t *Table[T]) Put(arg []byte) {
	i := binary.LittleEndian.Uint32(arg)
	var zero T
	t.slots[i].rec = zero
	t.free = append(t.free, i)
}

// PerEngine returns the engine's one value of type T, made by mk on
// the first call for that engine. A package keeps its registered ops
// and record tables there, so that each op is registered once per
// engine however many resources, networks or models use it.
func PerEngine[T any](e *Engine, mk func(*Engine) *T) *T {
	key := reflect.TypeOf((*T)(nil))
	if v, ok := e.perEngine[key]; ok {
		return v.(*T)
	}
	v := mk(e)
	if e.perEngine == nil {
		e.perEngine = make(map[reflect.Type]any)
	}
	e.perEngine[key] = v
	return v
}

// Call runs a registered op at once, inside the current event: the
// inline form of a continuation. Calling the zero Op does nothing, so
// it is the continuation of a job whose last step has nothing after it.
func (e *Engine) Call(op Op, arg []byte) {
	if op.idx != 0 {
		e.ops[op.idx].fn(arg)
	}
}
