package des

import (
	"math"
	"testing"
)

func TestTimeDrivenExecutesAllEvents(t *testing.T) {
	td := NewTimeDriven(0.5)
	fired := 0
	for i := 1; i <= 10; i++ {
		td.Schedule(float64(i)*0.9, func() { fired++ })
	}
	td.RunUntil(20)
	if fired != 10 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestTimeDrivenQuantizesEventTimes(t *testing.T) {
	td := NewTimeDriven(1.0)
	var observed float64
	td.Schedule(2.3, func() { observed = td.Now() })
	td.RunUntil(10)
	// The event is due at 2.3 but the handler observes the enclosing
	// tick boundary, 3.0 — the accuracy loss of time-driven execution.
	if observed != 3.0 {
		t.Fatalf("observed = %v, want 3.0", observed)
	}
}

func TestTimeDrivenTicksIncludeEmptyOnes(t *testing.T) {
	td := NewTimeDriven(1.0)
	td.Schedule(2, func() {})
	td.RunUntil(100)
	if td.Ticks() != 100 {
		t.Fatalf("ticks = %d, want 100 (must pay for empty ticks)", td.Ticks())
	}
	// An event-driven engine pays exactly one step for the same model.
	e := NewEngine()
	e.Schedule(2, func() {})
	e.Run()
	if e.Stats().Executed != 1 {
		t.Fatal("event-driven executed != 1")
	}
}

func TestTimeDrivenStop(t *testing.T) {
	td := NewTimeDriven(1.0)
	fired := 0
	td.Schedule(1, func() { fired++; td.Stop() })
	td.Schedule(50, func() { fired++ })
	td.RunUntil(100)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestTimeDrivenMatchesEventDrivenWithinTick(t *testing.T) {
	// With dt much smaller than event spacing, both executors should
	// agree on the event count and approximately on timing.
	const dt = 1e-3
	build := func(schedule func(float64, func())) *int {
		count := new(int)
		for i := 1; i <= 50; i++ {
			schedule(float64(i)*0.37, func() { *count++ })
		}
		return count
	}
	ed := NewEngine()
	cED := build(func(d float64, f func()) { ed.Schedule(d, f) })
	ed.Run()
	td := NewTimeDriven(dt)
	cTD := build(func(d float64, f func()) { td.Schedule(d, f) })
	td.RunUntil(50 * 0.37)
	if *cED != *cTD {
		t.Fatalf("event-driven %d vs time-driven %d", *cED, *cTD)
	}
}

func TestTimeDrivenBadDT(t *testing.T) {
	for _, dt := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		dt := dt
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dt=%v: no panic", dt)
				}
			}()
			NewTimeDriven(dt)
		}()
	}
}

func TestTimeDrivenHorizonClamp(t *testing.T) {
	td := NewTimeDriven(3.0)
	end := td.RunUntil(7) // ticks at 3, 6, then clamped 7
	if end != 7 {
		t.Fatalf("end = %v", end)
	}
	if td.Ticks() != 3 {
		t.Fatalf("ticks = %d", td.Ticks())
	}
}

// TestTimeDrivenStopKeepsLaneOrder stops inside a tick's handler after
// it scheduled two events at zero delay. The next RunUntil moves the
// clock a tick on and must run those two (due at the stopped instant)
// before an event due inside the new tick that was scheduled earlier,
// and in the order they were scheduled.
func TestTimeDrivenStopKeepsLaneOrder(t *testing.T) {
	td := NewTimeDriven(1.0)
	var got []string
	var at []float64
	ran := func(name string) func() {
		return func() { got, at = append(got, name), append(at, td.Now()) }
	}
	td.Schedule(1, func() {
		td.Schedule(0, ran("a"))
		td.Schedule(0, ran("b"))
		td.Stop()
	})
	td.Schedule(1.5, ran("c"))
	if end := td.RunUntil(10); end != 1 || len(got) != 0 {
		t.Fatalf("first run ended at %v having run %v, want 1 and nothing", end, got)
	}
	td.RunUntil(10)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("ran %v, want [a b c]", got)
	}
	for i, a := range at {
		if a != 2 {
			t.Fatalf("%s ran at %v, want the tick time 2", got[i], a)
		}
	}
	if s := td.Stats(); s.Executed != 4 || s.Scheduled != 4 {
		t.Fatalf("stats %+v, want 4 executed and 4 scheduled", s)
	}
}
