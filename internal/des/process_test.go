package des

import (
	"testing"
)

func TestProcessHold(t *testing.T) {
	e := NewEngine()
	var trace []float64
	e.Spawn("worker", func(p *Process) {
		trace = append(trace, p.Now())
		p.Hold(5)
		trace = append(trace, p.Now())
		p.Hold(2.5)
		trace = append(trace, p.Now())
	})
	e.Run()
	want := []float64{0, 5, 7.5}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("live processes = %d", e.LiveProcesses())
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var start float64 = -1
	e.SpawnAt("late", 10, func(p *Process) { start = p.Now() })
	e.Run()
	if start != 10 {
		t.Fatalf("start = %v", start)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, d := range []struct {
		name string
		step float64
	}{{"a", 3}, {"b", 2}} {
		d := d
		e.Spawn(d.name, func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Hold(d.step)
				order = append(order, d.name)
			}
		})
	}
	e.Run()
	// a wakes at 3,6,9; b wakes at 2,4,6. At t=6 a was scheduled
	// (spawned) first... wakes are scheduled when Hold is called:
	// b's t=6 wake is scheduled at t=4, a's t=6 wake at t=3, so a
	// precedes b at the tie.
	want := []string{"b", "a", "b", "a", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A waiter resumed by a zero that an Add undoes before the resume runs
// waits again, for the next zero.
func TestStaleWakeIgnored(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	wg.Add(1)
	var wakeTimes []float64
	e.Spawn("sleeper", func(p *Process) {
		wg.Wait(p)
		wakeTimes = append(wakeTimes, p.Now())
	})
	e.Spawn("waker", func(p *Process) {
		p.Hold(1)
		wg.Done()
		wg.Add(1) // the sleeper's resume is queued; it must not end the wait
		p.Hold(5)
		wg.Done()
	})
	e.Run()
	if len(wakeTimes) != 1 || wakeTimes[0] != 6 {
		t.Fatalf("wakeTimes = %v", wakeTimes)
	}
}

func TestKillBlockedProcess(t *testing.T) {
	e := NewEngine()
	cleaned := false
	victim := e.Spawn("victim", func(p *Process) {
		defer func() { cleaned = true }()
		p.Hold(1000)
		t.Error("victim resumed after kill")
	})
	e.Spawn("killer", func(p *Process) {
		p.Hold(1)
		victim.Kill()
	})
	e.Run()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if !victim.Ended() {
		t.Fatal("victim not ended")
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("live = %d", e.LiveProcesses())
	}
}

func TestKillUnstartedProcess(t *testing.T) {
	e := NewEngine()
	ran := false
	victim := e.SpawnAt("victim", 10, func(p *Process) { ran = true })
	e.Schedule(1, func() { victim.Kill() })
	e.Run()
	if ran {
		t.Fatal("killed-before-start process ran")
	}
	if e.LiveProcesses() != 0 {
		t.Fatal("leak")
	}
}

// TestKilledUnstartedProcessFreesItsStartSlot: the des:start event of
// a process killed before it started still runs, as a no-op, and frees
// the process's slot in the start table, which the next Spawn reuses.
func TestKilledUnstartedProcessFreesItsStartSlot(t *testing.T) {
	e := NewEngine()
	victim := e.SpawnAt("victim", 10, func(*Process) { t.Error("killed-before-start process ran") })
	e.Schedule(1, func() { victim.Kill() })
	e.Run()
	k := victim.k
	if got := e.Executed(); got != 2 {
		t.Fatalf("executed %d events, want the kill and the start", got)
	}
	if len(k.starts.free) != len(k.starts.slots) || e.LiveProcesses() != 0 {
		t.Fatalf("%d of %d start slots free, %d processes live after the start ran", len(k.starts.free), len(k.starts.slots), e.LiveProcesses())
	}
	next := e.Spawn("next", func(*Process) {})
	if *k.starts.At(k.starts.slots[0].arg[:]) != next {
		t.Fatal("the next Spawn did not reuse the freed start slot")
	}
	e.Run()
	if !next.Ended() || e.LiveProcesses() != 0 {
		t.Fatalf("next ended=%v, %d processes live", next.Ended(), e.LiveProcesses())
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Process) {
		p.Hold(1)
		panic("model bug")
	})
	defer func() {
		if r := recover(); r != "model bug" {
			t.Fatalf("recover = %v", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned despite process panic")
}

func TestProcessSpawnsProcess(t *testing.T) {
	e := NewEngine()
	var childAt float64 = -1
	e.Spawn("parent", func(p *Process) {
		p.Hold(2)
		e.Spawn("child", func(c *Process) {
			c.Hold(3)
			childAt = c.Now()
		})
		p.Hold(10)
	})
	e.Run()
	if childAt != 5 {
		t.Fatalf("childAt = %v", childAt)
	}
}

func TestManyProcesses(t *testing.T) {
	e := NewEngine()
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Process) {
			p.Hold(float64(i % 17))
			done++
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("leaked %d processes", e.LiveProcesses())
	}
}

func TestProcessAccessors(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("named", func(p *Process) {
		if p.Name() != "named" || p.Engine() != e {
			t.Error("accessors wrong")
		}
	})
	e.Run()
	if !p.Ended() {
		t.Fatal("not ended")
	}
}
