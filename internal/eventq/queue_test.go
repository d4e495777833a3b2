package eventq

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rng"
)

// forEachKind runs a subtest against every queue implementation.
func forEachKind(t *testing.T, fn func(t *testing.T, q Queue)) {
	t.Helper()
	for _, k := range Kinds() {
		k := k
		t.Run(string(k), func(t *testing.T) { fn(t, New(k)) })
	}
}

func TestEmptyQueue(t *testing.T) {
	forEachKind(t, func(t *testing.T, q Queue) {
		if q.Len() != 0 {
			t.Fatalf("new queue Len = %d, want 0", q.Len())
		}
		if _, ok := q.Pop(); ok {
			t.Fatal("Pop on empty queue returned ok")
		}
		if _, ok := q.Peek(); ok {
			t.Fatal("Peek on empty queue returned ok")
		}
	})
}

func TestSingleItem(t *testing.T) {
	forEachKind(t, func(t *testing.T, q Queue) {
		ev := &Event{Op: 1}
		q.Push(Item{Time: 3.5, Seq: 1, Event: ev})
		if q.Len() != 1 {
			t.Fatalf("Len = %d, want 1", q.Len())
		}
		it, ok := q.Peek()
		if !ok || it.Time != 3.5 || it.Event != ev {
			t.Fatalf("Peek = %+v, %v", it, ok)
		}
		it, ok = q.Pop()
		if !ok || it.Time != 3.5 {
			t.Fatalf("Pop = %+v, %v", it, ok)
		}
		if q.Len() != 0 {
			t.Fatalf("Len after pop = %d, want 0", q.Len())
		}
	})
}

func TestOrderedDrain(t *testing.T) {
	forEachKind(t, func(t *testing.T, q Queue) {
		src := rng.New(42)
		const n = 5000
		times := make([]float64, n)
		for i := range times {
			times[i] = src.Float64() * 1000
		}
		for i, tm := range times {
			q.Push(Item{Time: tm, Seq: uint64(i)})
		}
		if q.Len() != n {
			t.Fatalf("Len = %d, want %d", q.Len(), n)
		}
		sort.Float64s(times)
		prev := math.Inf(-1)
		for i := 0; i < n; i++ {
			it, ok := q.Pop()
			if !ok {
				t.Fatalf("Pop %d failed", i)
			}
			if it.Time < prev {
				t.Fatalf("Pop %d time %v < previous %v", i, it.Time, prev)
			}
			if it.Time != times[i] {
				t.Fatalf("Pop %d time %v, want %v", i, it.Time, times[i])
			}
			prev = it.Time
		}
		if _, ok := q.Pop(); ok {
			t.Fatal("queue not empty after full drain")
		}
	})
}

func TestFIFOStabilityOnTies(t *testing.T) {
	forEachKind(t, func(t *testing.T, q Queue) {
		// Many items at identical times: must dequeue in Seq order.
		const n = 500
		for i := 0; i < n; i++ {
			q.Push(Item{Time: 7.0, Seq: uint64(i)})
		}
		for i := 0; i < n; i++ {
			it, ok := q.Pop()
			if !ok {
				t.Fatalf("Pop %d failed", i)
			}
			if it.Seq != uint64(i) {
				t.Fatalf("tie-break violated: popped Seq %d at position %d", it.Seq, i)
			}
		}
	})
}

func TestInterleavedPushPop(t *testing.T) {
	forEachKind(t, func(t *testing.T, q Queue) {
		// Hold-model usage: pop the min, push a replacement a random
		// increment in the future, always verifying monotone pops.
		src := rng.New(7)
		now := 0.0
		var seq uint64
		for i := 0; i < 256; i++ {
			seq++
			q.Push(Item{Time: src.Float64() * 10, Seq: seq})
		}
		for i := 0; i < 20000; i++ {
			it, ok := q.Pop()
			if !ok {
				t.Fatalf("unexpected empty at iteration %d", i)
			}
			if it.Time < now {
				t.Fatalf("time went backwards: %v < %v", it.Time, now)
			}
			now = it.Time
			seq++
			q.Push(Item{Time: now + src.Exp(1.0), Seq: seq})
		}
	})
}

// TestTiesInAnySeqOrder pushes equal times with their seqs out of
// order, as an engine does when it pushes a record it moved later: a
// lower seq arrives after higher ones at the same time. Times come from
// a few values at or after the last pop, so ties straddle every tier a
// structure has; each pop must match the reference heap's.
func TestTiesInAnySeqOrder(t *testing.T) {
	forEachKind(t, func(t *testing.T, q Queue) {
		src := rng.New(11)
		var ref refHeap
		now := 0.0
		for i := 0; i < 20000; i++ {
			if src.Intn(3) > 0 || ref.Len() == 0 {
				// A seq below every earlier one half the time.
				seq := uint64(1e9 + i)
				if src.Intn(2) == 0 {
					seq = uint64(1e9 - i)
				}
				it := Item{Time: now + float64(src.Intn(8))/4, Seq: seq}
				q.Push(it)
				ref.Push(it)
				continue
			}
			got, _ := q.Pop()
			want, _ := ref.Pop()
			if got.Time != want.Time || got.Seq != want.Seq {
				t.Fatalf("pop %d: (%v, %d), want (%v, %d)", i, got.Time, got.Seq, want.Time, want.Seq)
			}
			now = got.Time
		}
	})
}

func TestPushBelowCurrentMin(t *testing.T) {
	forEachKind(t, func(t *testing.T, q Queue) {
		// Drain part of the queue, then push events earlier than
		// everything remaining (but after the last pop) — exercises
		// calendar cursor rollback and ladder Bottom merging.
		var seq uint64
		push := func(tm float64) {
			seq++
			q.Push(Item{Time: tm, Seq: seq})
		}
		for i := 0; i < 100; i++ {
			push(float64(i) + 100)
		}
		it, _ := q.Pop() // t=100
		if it.Time != 100 {
			t.Fatalf("first pop %v, want 100", it.Time)
		}
		push(100.5) // earlier than all remaining (101..199)
		it, _ = q.Pop()
		if it.Time != 100.5 {
			t.Fatalf("pop after low push %v, want 100.5", it.Time)
		}
	})
}

func TestNegativeAndZeroTimes(t *testing.T) {
	forEachKind(t, func(t *testing.T, q Queue) {
		times := []float64{0, -5.5, 3, -5.5, 0, 12, -100}
		for i, tm := range times {
			q.Push(Item{Time: tm, Seq: uint64(i)})
		}
		want := append([]float64(nil), times...)
		sort.Float64s(want)
		for i, w := range want {
			it, ok := q.Pop()
			if !ok || it.Time != w {
				t.Fatalf("pop %d = %v (%v), want %v", i, it.Time, ok, w)
			}
		}
	})
}

func TestQuickDrainMatchesSort(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			// Property: for any slice of finite times, draining the
			// queue yields exactly the sorted multiset.
			f := func(raw []float64) bool {
				q := New(k)
				times := make([]float64, 0, len(raw))
				for _, v := range raw {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						continue
					}
					// Keep magnitudes sane for bucket structures.
					times = append(times, math.Mod(v, 1e9))
				}
				for i, tm := range times {
					q.Push(Item{Time: tm, Seq: uint64(i)})
				}
				sorted := append([]float64(nil), times...)
				sort.Float64s(sorted)
				for i := range sorted {
					it, ok := q.Pop()
					if !ok || it.Time != sorted[i] {
						return false
					}
				}
				_, ok := q.Pop()
				return !ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQuickInterleavedNeverRegresses(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			// Property: in hold-model usage with arbitrary positive
			// increments, pops never go backwards in time.
			f := func(increments []uint16, initial []uint16) bool {
				q := New(k)
				var seq uint64
				for _, v := range initial {
					seq++
					q.Push(Item{Time: float64(v), Seq: seq})
				}
				if q.Len() == 0 {
					seq++
					q.Push(Item{Time: 1, Seq: seq})
				}
				now := math.Inf(-1)
				for _, inc := range increments {
					it, ok := q.Pop()
					if !ok {
						return false
					}
					if it.Time < now {
						return false
					}
					now = it.Time
					seq++
					q.Push(Item{Time: now + float64(inc)/16, Seq: seq})
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCalendarResizeAblation(t *testing.T) {
	// A non-resizable calendar must still be correct (only slower).
	q := NewCalendar()
	q.SetResizable(false)
	src := rng.New(3)
	for i := 0; i < 10000; i++ {
		q.Push(Item{Time: src.Float64() * 1e6, Seq: uint64(i)})
	}
	prev := math.Inf(-1)
	for i := 0; i < 10000; i++ {
		it, ok := q.Pop()
		if !ok || it.Time < prev {
			t.Fatalf("non-resizable calendar order violation at %d", i)
		}
		prev = it.Time
	}
}

func TestKindsAndNew(t *testing.T) {
	if len(Kinds()) != 6 {
		t.Fatalf("Kinds() = %d entries, want 6", len(Kinds()))
	}
	want := map[Kind]Queue{
		KindHeap: &Heap{}, KindList: &List{}, KindSkipList: &SkipList{},
		KindSplay: &Splay{}, KindCalendar: &Calendar{}, KindLadder: &Ladder{},
	}
	for _, k := range Kinds() {
		if got := reflect.TypeOf(New(k)); got != reflect.TypeOf(want[k]) {
			t.Errorf("New(%q) is a %v, want a %T", k, got, want[k])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown kind did not panic")
		}
	}()
	New(Kind("bogus"))
}

func TestItemBefore(t *testing.T) {
	a := Item{Time: 1, Seq: 5}
	b := Item{Time: 2, Seq: 1}
	c := Item{Time: 1, Seq: 6}
	if !a.Before(b) || b.Before(a) {
		t.Error("time ordering broken")
	}
	if !a.Before(c) || c.Before(a) {
		t.Error("seq tie-break broken")
	}
	if a.Before(a) {
		t.Error("item before itself")
	}
}

// TestEventRecordIs72Bytes bounds the record's layout. Seq is the
// record's generation as well as its key, so no field of its own
// carries one; Canceled sits in the padding after Op, and a record
// stores no label (the engine names an event by its op). Either extra
// word makes a record 80 bytes. The engine allocates records in slabs,
// whose stride is this size. A record that shrinks passes.
func TestEventRecordIs72Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 72 {
		t.Fatalf("eventq.Event takes %d bytes, want at most 72", got)
	}
}
