package eventq

import (
	"bytes"
	"math"
	"testing"
)

// TestHeapTimeRoundTrip pins the order contract at the edges of the
// integer key: every Time comes back from Peek and Pop with the bits it
// was pushed with, and the order is IEEE's, under which −0 and +0 tie
// and Seq decides.
func TestHeapTimeRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const minNormal = 0x1p-1022
	// In dequeue order. −0 is the one value stored as another: +0, the
	// same instant (heap.go, Push).
	times := []float64{
		math.Inf(-1), -math.MaxFloat64, -2.5, -minNormal, -math.SmallestNonzeroFloat64,
		0, negZero, 0,
		math.SmallestNonzeroFloat64, minNormal, 1, math.Nextafter(1, 2), math.MaxFloat64, math.Inf(1),
	}
	h := NewHeap()
	// Pushed back to front, so the heap has to do the ordering; Seq
	// rises with dequeue position, so (−0, seq 7) must follow (+0, seq 6).
	for i := len(times) - 1; i >= 0; i-- {
		h.Push(Item{Time: times[i], Seq: uint64(i + 1)})
	}
	for i, want := range times {
		wantBits := math.Float64bits(want + 0)
		peek, ok := h.Peek()
		if !ok || math.Float64bits(peek.Time) != wantBits || peek.Seq != uint64(i+1) {
			t.Fatalf("Peek %d = (%x, seq %d), %v; want (%x, seq %d)",
				i, math.Float64bits(peek.Time), peek.Seq, ok, wantBits, i+1)
		}
		if pop, _ := h.Pop(); pop != peek || math.Float64bits(pop.Time) != wantBits {
			t.Fatalf("Pop %d = %+v, Peek said %+v", i, pop, peek)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len after drain = %d", h.Len())
	}
}

// fuzzTimes is what FuzzQueueAgainstReference pushes into the heap, in
// any order: few values, so that most pushes tie on Time, and the edges
// of the heap's key mapping.
var fuzzTimes = [16]float64{
	math.Inf(-1), -math.MaxFloat64, -2.5, -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0x1p-1022,
	1, 1, 2.5, 2.5, 7, 7, math.MaxFloat64, math.Inf(1),
}

// fuzzDelays is what it pushes into the other kinds, after the time
// last popped: what an engine gives a queue, finite times at or after
// its clock. Few values again, so that most pushes tie.
var fuzzDelays = [16]float64{0, 0, 0, 0.25, 0.5, 0.5, 1, 1, 1, 2, 2, 3, 7, 7, 100, 1e6}

// FuzzQueueAgainstReference drives one queue kind, named by the first
// byte, and the binary heap Heap replaced (heap_ref_test.go) with one
// push/pop/peek/replace sequence: every returned Item and every Len
// must agree, through a final drain. A byte below 0x80 pushes at
// time b&15 (fuzzTimes[b&15] on the heap, fuzzDelays[b&15] after the
// last pop on the other kinds), below 0xC0 pops, below 0xE0 peeks,
// else replaces the minimum with an item at time b&15: on the heap
// ReplaceMin after a Peek, as the engine runs it, on the other kinds
// and on the reference Pop then Push. A push byte with 0x70 set takes a
// seq older than most queued ones, as an engine's record moved later
// is pushed at its new time under the seq it drew when it was moved:
// seqs are even, and those pushes take the odd ones in turn.
func FuzzQueueAgainstReference(f *testing.F) {
	const push, pop, peek, replace, old = 0x00, 0x80, 0xC0, 0xE0, 0x70
	// For every kind, sizes 0–5 and 4k±1, where the last sibling group
	// of the heap's 4-ary layout is partial: filled, half drained,
	// refilled; then, at the same sizes, filled and turned over by
	// replaces.
	for k := range Kinds() {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65} {
			seed := []byte{byte(k)}
			for i := 0; i < n; i++ {
				seed = append(seed, push|byte(i*7)&0x7F)
			}
			fill := seed
			seed = append(seed, peek)
			seed = append(seed, bytes.Repeat([]byte{pop}, n/2+1)...)
			seed = append(seed, push|5, push|4, push|5, peek)
			f.Add(seed)
			turn := append(fill[:len(fill):len(fill)], peek)
			for i := 0; i < n+1; i++ {
				turn = append(turn, replace|byte(i*5)&0x1F)
			}
			f.Add(append(turn, peek, pop, replace|3))
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		kind := Kinds()[int(ops[0])%len(Kinds())]
		q, ref := New(kind), &refHeap{}
		h, _ := q.(*Heap)
		var evs [64]Event
		var seq, oldSeq uint64 = 0, 1
		now := 0.0 // the time last popped
		item := func(b byte) Item {
			it := Item{Time: fuzzTimes[b&15]}
			if h == nil {
				it.Time = now + fuzzDelays[b&15]
			}
			if b < pop && b&old == old {
				oldSeq += 2
				it.Seq = oldSeq
			} else {
				seq += 2
				it.Seq = seq
			}
			it.Event = &evs[it.Seq%uint64(len(evs))]
			return it
		}
		// Then drain; the full slice expression keeps append off the fuzzer's array.
		ops = append(ops[1:len(ops):len(ops)], bytes.Repeat([]byte{pop}, len(ops))...)
		for i, b := range ops {
			var got, want Item
			var gotOK, wantOK bool
			switch {
			case b < pop:
				it := item(b)
				q.Push(it)
				ref.Push(it)
			case b < peek:
				got, gotOK = q.Pop()
				if want, wantOK = ref.Pop(); wantOK {
					now = want.Time
				}
			case b < replace:
				got, gotOK = q.Peek()
				want, wantOK = ref.Peek()
			case h != nil:
				got, gotOK = h.Peek()
				want, wantOK = ref.Pop()
				it := item(b)
				h.ReplaceMin(it)
				ref.Push(it)
			default:
				got, gotOK = q.Pop()
				if want, wantOK = ref.Pop(); wantOK {
					now = want.Time
				}
				it := item(b)
				q.Push(it)
				ref.Push(it)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: op %d (%#x) = %+v, %v; reference %+v, %v", kind, i, b, got, gotOK, want, wantOK)
			}
			if q.Len() != ref.Len() {
				t.Fatalf("%s: after op %d (%#x): Len = %d, reference %d", kind, i, b, q.Len(), ref.Len())
			}
		}
	})
}

// TestHeapGrowthTouchesTwiceTheFinalArray pins the FEL's growth: the
// arrays 10⁴ pushes into a fresh heap allocate add up to at most twice
// the last one, as doubling gives. append's ~1.25× step past 256
// elements allocates about four times the last one.
func TestHeapGrowthTouchesTwiceTheFinalArray(t *testing.T) {
	h := NewHeap()
	touched, arrays := 0, 0
	for i := 0; i < 10_000; i++ {
		c := cap(h.nodes)
		h.Push(Item{Time: float64(i % 97), Seq: uint64(i)})
		if cap(h.nodes) != c {
			touched += cap(h.nodes)
			arrays++
		}
	}
	if last := cap(h.nodes); touched > 2*last {
		t.Fatalf("%d arrays of %d nodes in all, the last %d: more than twice the last", arrays, touched, last)
	}
}
