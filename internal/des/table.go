package des

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"repro/internal/checkpoint"
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
		t.grow()
	}
	s := t.slots[t.free[len(t.free)-1]]
	t.free = t.free[:len(t.free)-1]
	return &s.rec, s.arg[:]
}

// grow adds a block of free records. The first block comes with room
// for its 32 indices in the same allocation, where appending them one
// by one would double each array five times; a later block appends to
// arrays that have room or double once.
func (t *Table[T]) grow() {
	n := len(t.slots)
	var block []slot[T]
	if n == 0 {
		first := new(struct {
			recs  [tableBlock]slot[T]
			slots [tableBlock]*slot[T]
			free  [tableBlock]uint32
		})
		block, t.slots, t.free = first.recs[:], first.slots[:0], first.free[:0]
	} else {
		block = make([]slot[T], tableBlock)
	}
	for i := range block {
		binary.LittleEndian.PutUint32(block[i].arg[:], uint32(n+i))
		t.slots = append(t.slots, &block[i])
		t.free = append(t.free, uint32(n+len(block)-1-i)) // lowest index first out
	}
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

// AppendState writes the table to enc: its slot count, its free list
// in order, then each live record, in index order, through rec. A
// table restored from it names the same records by the same indices
// and hands out the same indices, in the same order, as this one, so
// the op arguments pending in a restored engine still name their
// records. Each record must encode to at least one byte.
func (t *Table[T]) AppendState(enc *checkpoint.Enc, rec func(*checkpoint.Enc, *T)) {
	enc.Int(len(t.slots))
	enc.Int(len(t.free))
	free := make([]bool, len(t.slots))
	for _, i := range t.free {
		enc.U64(uint64(i))
		free[i] = true
	}
	for i, s := range t.slots {
		if !free[i] {
			rec(enc, &s.rec)
		}
	}
}

// RestoreState overwrites the table with one AppendState wrote, reading
// each live record through rec. A slot count that is not whole blocks
// or exceeds the bytes left (every slot costs one at least: a free one
// its entry, a live one its record), or a free list naming a slot twice
// or past the count, is refused, and the table is left as it was.
func (t *Table[T]) RestoreState(d *checkpoint.Dec, rec func(*checkpoint.Dec, *T) error) error {
	n, nfree := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n < 0 || n%tableBlock != 0 || n > d.Remaining() || nfree < 0 || nfree > n {
		return fmt.Errorf("des: table state of %d slots, %d free, in %d bytes", n, nfree, d.Remaining())
	}
	free, isFree := make([]uint32, nfree), make([]bool, n)
	for k := range free {
		i := d.U64()
		if d.Err() == nil && (i >= uint64(n) || isFree[i]) {
			return fmt.Errorf("des: table state frees slot %d twice or past its %d slots", i, n)
		}
		free[k], isFree[i] = uint32(i), true
	}
	block, slots := make([]slot[T], n), make([]*slot[T], n)
	for i := range block {
		binary.LittleEndian.PutUint32(block[i].arg[:], uint32(i))
		slots[i] = &block[i]
		if d.Err() == nil && !isFree[i] {
			if err := rec(d, &block[i].rec); err != nil {
				return err
			}
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	t.slots, t.free = slots, free
	return nil
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
