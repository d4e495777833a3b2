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

// fuzzTimes is what FuzzHeapAgainstReference pushes: few values, so
// that most pushes tie on Time, and the edges of the key mapping.
var fuzzTimes = [16]float64{
	math.Inf(-1), -math.MaxFloat64, -2.5, -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0x1p-1022,
	1, 1, 2.5, 2.5, 7, 7, math.MaxFloat64, math.Inf(1),
}

// FuzzHeapAgainstReference drives Heap and the binary heap it replaced
// (heap_ref_test.go) with one push/pop/peek/replace sequence: every
// returned Item and every Len must agree, through a final drain. A
// byte below 0x80 pushes fuzzTimes[b&15], below 0xC0 pops, below 0xE0
// peeks, else replaces the minimum with fuzzTimes[b&15]: ReplaceMin
// against the reference's Pop then Push.
func FuzzHeapAgainstReference(f *testing.F) {
	const push, pop, peek, replace = 0x00, 0x80, 0xC0, 0xE0
	// Sizes 0–5 and 4k±1, where the last sibling group of the 4-ary
	// layout is partial: filled, half drained, refilled; then, at the
	// same sizes, filled and turned over by replaces.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65} {
		seed := make([]byte, 0, 2*n+2)
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		h, ref := NewHeap(), &refHeap{}
		var evs [64]Event
		var seq uint64
		// Then drain; the full slice expression keeps append off the fuzzer's array.
		ops = append(ops[:len(ops):len(ops)], bytes.Repeat([]byte{pop}, len(ops))...)
		for i, b := range ops {
			var got, want Item
			var gotOK, wantOK bool
			switch {
			case b < pop:
				seq++
				it := Item{Time: fuzzTimes[b&15], Seq: seq, Event: &evs[seq%uint64(len(evs))]}
				h.Push(it)
				ref.Push(it)
			case b < peek:
				got, gotOK = h.Pop()
				want, wantOK = ref.Pop()
			case b < replace:
				got, gotOK = h.Peek()
				want, wantOK = ref.Peek()
			default:
				seq++
				it := Item{Time: fuzzTimes[b&15], Seq: seq, Event: &evs[seq%uint64(len(evs))]}
				h.ReplaceMin(it)
				ref.Pop()
				ref.Push(it)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d (%#x) = %+v, %v; reference %+v, %v", i, b, got, gotOK, want, wantOK)
			}
			if h.Len() != ref.Len() {
				t.Fatalf("after op %d (%#x): Len = %d, reference %d", i, b, h.Len(), ref.Len())
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
