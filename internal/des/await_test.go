package des

import "testing"

func TestAwaitResumeBeforeStartReturnsDoesNotBlock(t *testing.T) {
	e := NewEngine()
	var before, after Stats
	var at float64 = -1
	e.Spawn("p", func(p *Process) {
		p.Hold(1)
		before = e.Stats()
		p.Await(func(op Op, arg []byte) { e.Call(op, arg) })
		after = e.Stats()
		at = p.Now()
	})
	e.Run()
	if at != 1 {
		t.Fatalf("resumed at %v, want 1", at)
	}
	if after != before {
		t.Fatalf("a synchronous Await changed the engine: %+v -> %+v", before, after)
	}
}

func TestAwaitResumeFromLaterEventAddsNoEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("p", func(p *Process) {
		p.Await(func(op Op, arg []byte) {
			e.Schedule(5, func() {
				order = append(order, "resume")
				e.Call(op, arg)
				order = append(order, "after resume")
			})
			e.Schedule(5, func() { order = append(order, "next event") })
		})
		order = append(order, "process")
	})
	e.Run()
	// The process runs inside the resuming event, before the event
	// scheduled right after it; start + two events, nothing else.
	want := []string{"resume", "process", "after resume", "next event"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s := e.Stats(); s.Executed != 3 || s.Scheduled != 3 {
		t.Fatalf("executed %d scheduled %d, want 3 and 3", s.Executed, s.Scheduled)
	}
}

func TestAwaitNotEndedByActivate(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	p := e.Spawn("p", func(p *Process) {
		p.Await(func(op Op, arg []byte) { e.ScheduleOp(10, op, arg) })
		at = p.Now()
	})
	e.Schedule(3, func() { p.Activate() })
	e.Schedule(4, func() { p.Activate() })
	e.Run()
	if at != 10 {
		t.Fatalf("resumed at %v, want 10", at)
	}
}

func TestAwaitKillThenResumeIsNoop(t *testing.T) {
	e := NewEngine()
	var resume func()
	cleaned := false
	victim := e.Spawn("victim", func(p *Process) {
		defer func() { cleaned = true }()
		p.Await(func(op Op, arg []byte) { resume = func() { e.Call(op, arg) } })
		t.Error("victim resumed after kill")
	})
	e.Schedule(1, func() { victim.Kill() })
	e.Schedule(2, func() { resume(); resume() })
	e.Run()
	if !cleaned || !victim.Ended() || e.LiveProcesses() != 0 {
		t.Fatalf("cleaned=%v ended=%v live=%d", cleaned, victim.Ended(), e.LiveProcesses())
	}
}

func TestAwaitRepeatedResumeIsNoop(t *testing.T) {
	e := NewEngine()
	var wakes []float64
	p := e.Spawn("p", func(p *Process) {
		p.Await(func(op Op, arg []byte) {
			e.ScheduleOp(1, op, arg)
			e.ScheduleOp(2, op, arg)
		})
		wakes = append(wakes, p.Now())
		p.Passivate() // a second resume of the finished Await must not end this
		wakes = append(wakes, p.Now())
	})
	e.Schedule(3, func() { p.Activate() })
	e.Run()
	if len(wakes) != 2 || wakes[0] != 1 || wakes[1] != 3 {
		t.Fatalf("wakes = %v, want [1 3]", wakes)
	}
}

// Processes (Acquire) and jobs written as ops (AcquireOp) wait in one
// queue and are granted in arrival order.
func TestResourceGrantsProcessesAndContinuationsInArrivalOrder(t *testing.T) {
	e := NewEngine()
	res := e.NewResource("r", 1)
	var order []string
	hold := func(name string) {
		order = append(order, name)
		e.Schedule(10, func() { res.Release(1) })
	}
	holdOp := e.RegisterOp("hold", func(name []byte) { hold(string(name)) })
	res.AcquireOp(1, holdOp, []byte("first"))
	for i, name := range []string{"proc A", "cont B", "proc C", "cont D"} {
		name := name
		if name[0] == 'p' {
			e.SpawnAt(name, float64(i+1), func(p *Process) {
				res.Acquire(p, 1)
				hold(name)
			})
			continue
		}
		e.Schedule(float64(i+1), func() { res.AcquireOp(1, holdOp, []byte(name)) })
	}
	e.Run()
	want := []string{"first", "proc A", "cont B", "proc C", "cont D"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 50 || res.InUse() != 0 || res.QueueLen() != 0 {
		t.Fatalf("now %v in use %d queued %d", e.Now(), res.InUse(), res.QueueLen())
	}
}
