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
	e.Spawn("p", func(p *Process) {
		p.Await(func(op Op, arg []byte) {
			e.ScheduleOp(1, op, arg)
			e.ScheduleOp(2, op, arg) // runs on the finished Await's freed record
		})
		wakes = append(wakes, p.Now())
	})
	e.Spawn("q", func(p *Process) {
		p.Hold(3) // began before p's record was freed, so it holds another
		wakes = append(wakes, p.Now())
	})
	e.Run()
	if len(wakes) != 2 || wakes[0] != 1 || wakes[1] != 3 {
		t.Fatalf("wakes = %v, want [1 3]", wakes)
	}
}

// TestAwaitStaleResumeLeavesLaterHoldAlone: an operation that runs
// its resume op twice resumes the Await at the first run, and the
// second, at 2, must not end the Hold(10) that took the freed record.
func TestAwaitStaleResumeLeavesLaterHoldAlone(t *testing.T) {
	e := NewEngine()
	var at float64
	e.Spawn("p", func(p *Process) {
		p.Await(func(op Op, arg []byte) {
			e.ScheduleOp(1, op, arg)
			e.ScheduleOp(2, op, arg)
		})
		p.Hold(10)
		at = p.Now()
	})
	e.Run()
	if at != 11 {
		t.Fatalf("Hold(10) from t=1 ended at %v, want 11", at)
	}
}

// awaitMallocs runs e for 100 steps of 10 time units and returns the
// mallocs of the whole loop and the Awaits it took. Counting the loop
// once, not averaging it per step, keeps a malloc every few steps from
// rounding down to none.
func awaitMallocs(e *Engine) (mallocs, awaits uint64) {
	k := PerEngine(e, newAwaits)
	mallocs = uint64(testing.AllocsPerRun(1, func() {
		gen := k.gen
		for range 100 {
			e.RunUntil(e.Now() + 10)
		}
		awaits = uint64(k.gen - gen)
	}))
	return mallocs, awaits
}

// checkAwaitMallocs asserts the one malloc blocking may cost: a 4 KiB
// chunk of resume arguments per 512 Awaits.
func checkAwaitMallocs(t *testing.T, mallocs, awaits uint64) {
	t.Helper()
	if awaits < 1000 {
		t.Fatalf("%d Awaits in 1000 time units: the processes stopped blocking", awaits)
	}
	if limit := (awaits + 511) / 512; mallocs > limit {
		t.Fatalf("%d mallocs over %d Awaits, want at most %d (one argument chunk per 512)", mallocs, awaits, limit)
	}
}

// TestHoldAllocatesNothing pins the steady-state cost of a block: a
// Hold, and an Acquire that waits behind another holder, each take a
// pooled Await record and a recycled event, and allocate nothing but
// their share of an argument chunk.
func TestHoldAllocatesNothing(t *testing.T) {
	e := NewEngine()
	res := e.NewResource("r", 1)
	var procs []*Process
	procs = append(procs, e.Spawn("holder", func(p *Process) {
		for {
			p.Hold(1)
		}
	}))
	for i := 0; i < 2; i++ {
		procs = append(procs, e.Spawn("user", func(p *Process) {
			for {
				res.Acquire(p, 1)
				p.Hold(1)
				res.Release(1)
			}
		}))
	}
	e.RunUntil(10) // warm the record tables, free lists and queue
	blocked := res.QueueLen()
	mallocs, awaits := awaitMallocs(e)
	if blocked != 1 || res.QueueLen() != 1 {
		t.Fatalf("%d then %d processes queued on the resource, want 1: Acquire never blocked", blocked, res.QueueLen())
	}
	checkAwaitMallocs(t, mallocs, awaits)
	for _, p := range procs {
		p.Kill()
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("%d processes left", e.LiveProcesses())
	}
}

// TestWaiterQueuesAllocateNothing: a resource with three processes
// queued behind its holder, and a wait group whose three waiters are
// resumed by a zero and queue again every time unit, keep their waiter
// arrays in steady state: they too allocate only argument chunks.
func TestWaiterQueuesAllocateNothing(t *testing.T) {
	e := NewEngine()
	res := e.NewResource("r", 1)
	wg := e.NewWaitGroup()
	var procs []*Process
	loop := func(name string, body func(p *Process)) {
		procs = append(procs, e.Spawn(name, func(p *Process) {
			for {
				body(p)
			}
		}))
	}
	for i := 0; i < 4; i++ {
		loop("user", func(p *Process) {
			res.Acquire(p, 1)
			p.Hold(1)
			res.Release(1)
		})
	}
	loop("counter", func(p *Process) {
		wg.Add(1)
		p.Hold(1)
		wg.Done()
	})
	for i := 0; i < 3; i++ {
		loop("waiter", func(p *Process) {
			wg.Wait(p)
			p.Hold(1)
		})
	}
	e.RunUntil(10)
	mallocs, awaits := awaitMallocs(e)
	if res.QueueLen() != 3 || len(wg.waiters) != 3 {
		t.Fatalf("%d processes queued on the resource and %d on the wait group, want 3 and 3", res.QueueLen(), len(wg.waiters))
	}
	checkAwaitMallocs(t, mallocs, awaits)
	for _, p := range procs {
		p.Kill()
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("%d processes left", e.LiveProcesses())
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
