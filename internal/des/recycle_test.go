package des

import "testing"

// TestTimerRecordsAreRecycled pins the free-list behavior itself: a
// fired event's record goes back to the engine pool and the next
// Schedule reuses it instead of allocating.
func TestTimerRecordsAreRecycled(t *testing.T) {
	e := NewEngine()
	t1 := e.Schedule(1, func() {})
	rec := t1.ev
	e.Run()
	if e.freeEv != rec {
		t.Fatal("fired event record not on the free list")
	}
	t2 := e.Schedule(2, func() {})
	if t2.ev != rec {
		t.Fatal("Schedule did not reuse the recycled record")
	}
	if t2.seq == t1.seq {
		t.Fatal("recycled record kept its generation")
	}
	if e.freeEv != nil {
		t.Fatal("free list should be empty after reuse")
	}
}

// TestStaleCancelAfterRecycleIsNoop is the load-bearing safety
// property of generation counting: canceling a handle whose record was
// recycled into a different event must not cancel that new event.
func TestStaleCancelAfterRecycleIsNoop(t *testing.T) {
	e := NewEngine()
	t1 := e.Schedule(1, func() {})
	e.Run() // t1 fires; its record is recycled

	fired := false
	t2 := e.Schedule(1, func() { fired = true })
	if t2.ev != t1.ev {
		t.Fatal("test premise broken: record not reused")
	}
	t1.Cancel() // stale handle: must not touch t2's event
	if t1.Canceled() {
		t.Fatal("stale Cancel reported success")
	}
	if t2.Canceled() {
		t.Fatal("stale Cancel leaked onto the recycled event")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel suppressed an unrelated event")
	}
}

// TestCancelThenDiscardThenReuse covers the tombstone path: a canceled
// event's record is recycled when its tombstone is discarded, and the
// original handle stays truthful without affecting the reuser.
func TestCancelThenDiscardThenReuse(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(1, func() { t.Error("canceled event fired") })
	tm.Cancel()
	if !tm.Canceled() {
		t.Fatal("Canceled() false right after Cancel")
	}
	e.Schedule(2, func() {})
	e.Run() // discards the tombstone, recycling the record
	if got := e.Stats(); got.Canceled != 1 || got.Executed != 1 {
		t.Fatalf("stats = %+v", got)
	}
	// The handle keeps reporting canceled even though its record moved on.
	if !tm.Canceled() {
		t.Fatal("Canceled() forgot the cancellation after recycling")
	}
	fired := false
	reuse := e.Schedule(1, func() { fired = true })
	tm.Cancel() // stale: second cancel must not tombstone the new event
	if reuse.Canceled() {
		t.Fatal("stale re-Cancel leaked onto the reused record")
	}
	e.Run()
	if !fired {
		t.Fatal("reused event did not fire")
	}
}

// TestZeroTimerIsSafe ensures the zero value is a usable no-op handle
// (callers store Timer by value and clear it by assigning Timer{}).
func TestZeroTimerIsSafe(t *testing.T) {
	var tm Timer
	tm.Cancel()
	if tm.Canceled() || tm.Time() != 0 {
		t.Fatal("zero Timer misbehaved")
	}
}

// TestRecyclingPreservesDeterminism runs a cancel-heavy stochastic
// model and demands the engine statistics every queue kind gave when
// the engine could run on each — recycling must be invisible to
// trajectories.
func TestRecyclingPreservesDeterminism(t *testing.T) {
	run := func() Stats {
		e := NewEngine(WithSeed(123))
		src := e.Stream("m")
		var decoy Timer
		n := 0
		var step func()
		step = func() {
			n++
			if n > 400 {
				return
			}
			decoy.Cancel() // tombstone the previous decoy, if still pending
			decoy = e.Schedule(3+src.Float64(), func() {})
			e.Schedule(src.Exp(1), step)
		}
		e.Schedule(src.Exp(1), step)
		e.Run()
		return e.Stats()
	}
	want := Stats{Executed: 416, Scheduled: 801, Canceled: 385, MaxQueue: 13}
	if got := run(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestFreshEngineAllocatesBySlab pins what a fresh engine's first 10⁴
// pending events cost: 44 slabs of event records, the heap's 15 arrays
// and the engine itself, at most 64 allocations in all, where a record
// apiece made 10⁴.
func TestFreshEngineAllocatesBySlab(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for i := 0; i < 10_000; i++ {
			e.Schedule(float64(i%100), func() {})
		}
	})
	if allocs > 64 {
		t.Fatalf("%v allocations to schedule 10⁴ events into a fresh engine, want at most 64", allocs)
	}
}
