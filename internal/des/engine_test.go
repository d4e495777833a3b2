package des

import (
	"math"
	"sort"
	"testing"

	"repro/internal/obs"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	e.Schedule(3, func() { got = append(got, e.Now()) })
	e.Schedule(1, func() { got = append(got, e.Now()) })
	e.Schedule(2, func() { got = append(got, e.Now()) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %v", end)
	}
	want := []float64{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("simultaneous events ran out of schedule order: %v", got[:10])
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			e.Schedule(1, rec)
		}
	}
	e.Schedule(1, rec)
	end := e.Run()
	if depth != 50 || end != 50 {
		t.Fatalf("depth=%d end=%v", depth, end)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() { fired++ })
	}
	e.RunUntil(5.5)
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %v, want 5", e.Now())
	}
	e.RunUntil(100)
	if fired != 10 {
		t.Fatalf("after resume fired = %d", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++; e.Stop() })
	e.Schedule(2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// A second Run resumes with the remaining events.
	e.Run()
	if fired != 2 {
		t.Fatalf("after second Run fired = %d", fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.Schedule(1, func() { fired = true })
	timer.Cancel()
	if !timer.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	st := e.Stats()
	if st.Canceled != 1 || st.Executed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	timer := e.Schedule(1, func() {})
	e.Run()
	timer.Cancel()
	if timer.Canceled() {
		t.Fatal("Cancel after fire marked canceled")
	}
}

func TestAtAbsoluteTime(t *testing.T) {
	e := NewEngine()
	var at float64
	e.At(7.25, func() { at = e.Now() })
	e.Run()
	if at != 7.25 {
		t.Fatalf("at = %v", at)
	}
}

func TestInvalidSchedulePanics(t *testing.T) {
	cases := map[string]func(e *Engine){
		"negative delay": func(e *Engine) { e.Schedule(-1, func() {}) },
		"nan delay":      func(e *Engine) { e.Schedule(math.NaN(), func() {}) },
		"inf delay":      func(e *Engine) { e.Schedule(math.Inf(1), func() {}) },
		"past At":        func(e *Engine) { e.Schedule(5, func() { e.At(1, func() {}) }); e.Run() },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn(NewEngine())
		})
	}
}

func TestStatsCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	st := e.Stats()
	if st.Scheduled != 10 || st.Executed != 10 || st.MaxQueue != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeekTimeSkipsTombstones(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	tm.Cancel()
	if pt := e.PeekTime(); pt != 2 {
		t.Fatalf("PeekTime = %v, want 2", pt)
	}
	e2 := NewEngine()
	if pt := e2.PeekTime(); !math.IsInf(pt, 1) {
		t.Fatalf("empty PeekTime = %v", pt)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(2, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatal("first step")
	}
	if !e.Step() || count != 2 {
		t.Fatal("second step")
	}
	if e.Step() {
		t.Fatal("step on empty queue")
	}
}

func TestOnEventHook(t *testing.T) {
	e := NewEngine()
	var got []obs.Event
	e.SetObserver(Observer{Hook: func(ev obs.Event) { got = append(got, ev) }})
	e.ScheduleOp(1, e.RegisterOp("alpha", func([]byte) {}), nil)
	e.ScheduleOp(2, e.RegisterOp("beta", func([]byte) {}), nil)
	e.Run()
	if len(got) != 2 || got[0].Label != "alpha" || got[1].Label != "beta" {
		t.Fatalf("events = %v", got)
	}
	// The typed hook carries the engine-assigned seq and the queue
	// length at execution: alpha fires with beta still pending.
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", got[0].Seq, got[1].Seq)
	}
	if got[0].QueueLen != 1 || got[1].QueueLen != 0 {
		t.Fatalf("queue lens = %d, %d", got[0].QueueLen, got[1].QueueLen)
	}
	if got[0].Time != 1 || got[1].Time != 2 {
		t.Fatalf("times = %v, %v", got[0].Time, got[1].Time)
	}
	// A zero observer detaches observability entirely.
	e.SetObserver(Observer{})
	e.Schedule(1, func() {})
	e.Run()
	if len(got) != 2 {
		t.Fatal("hook fired after removal")
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

func TestStreamsAreStable(t *testing.T) {
	e1 := NewEngine(WithSeed(7))
	e2 := NewEngine(WithSeed(7))
	a, b := e1.Stream("svc"), e2.Stream("svc")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("streams with equal seed+name diverged")
		}
	}
}
